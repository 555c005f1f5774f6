#!/usr/bin/env bash
# Greps first-party sources for constructs that must never reach main,
# independently of (and in addition to) the clippy lint gate:
#
#   * dbg!(...), todo!(...), unimplemented!(...) — debug leftovers;
#   * non-Relaxed atomic memory orderings outside #[cfg(test)] code — the
#     engine's atomics are flags and counters with no cross-thread data
#     dependencies (channels carry the data), so every ordering is Relaxed;
#     anything stronger is either a mistake or needs a design discussion.
#     This gate deliberately covers crates/obs too: metrics cells are the
#     canonical Relaxed-only use case;
#   * static atomics outside crates/obs — the metrics registry is the one
#     sanctioned home for process-global atomic state. Ad-hoc global
#     counters bypass its naming, stability classification and snapshot
#     semantics; route new ones through dioph-obs instead;
#   * Vec::new() / vec![ in the marked hot-loop modules — the probe loop
#     runs on recycled scratch memory (ARCHITECTURE.md, "The scratch-memory
#     discipline"), so an unannotated allocation in an LP kernel, the probe
#     compiler, the MPI layer or the decider is a per-probe allocation
#     regression waiting to happen. Deliberate allocations (returned witnesses, one-time
#     warm-up growth, densification) carry an `// alloc-ok: <reason>`
#     annotation on the same or the preceding line. The scratch layer
#     itself (*/scratch.rs) is where allocation is supposed to happen and
#     is exempt, as are #[cfg(test)] regions.
#
# Exits non-zero listing every offending line. Vendored crates under
# vendor/ keep their upstream style and are not scanned.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

scan() {
    local label="$1" pattern="$2"
    # First-party Rust sources only: the facade, the workspace crates and
    # the integration tests; vendor/ and target/ are excluded.
    local matches
    matches=$(grep -rnE "$pattern" src crates tests --include='*.rs' | grep -v '^\s*//' || true)
    if [ -n "$matches" ]; then
        echo "forbid.sh: $label:" >&2
        echo "$matches" >&2
        fail=1
    fi
}

scan "dbg! macro left in code" '\bdbg!\('
scan "todo! macro left in code" '\btodo!\('
scan "unimplemented! macro left in code" '\bunimplemented!\('

# Atomic orderings: match the std::sync::atomic::Ordering variants only —
# cmp::Ordering (Less/Equal/Greater) appears all over the codebase and is
# fine. Test modules are allowed to use stronger orderings for stress
# harnesses; first-party non-test code must stay Relaxed.
ordering_matches=$(grep -rnE 'Ordering::(SeqCst|Acquire|Release|AcqRel)' src crates --include='*.rs' \
    | grep -v '^\s*//' || true)
if [ -n "$ordering_matches" ]; then
    filtered=""
    while IFS= read -r line; do
        file="${line%%:*}"
        # Allow matches in files' #[cfg(test)] regions: approximate by
        # checking whether the match line comes after a `mod tests` marker.
        lineno=$(echo "$line" | cut -d: -f2)
        teststart=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
        if [ -n "$teststart" ] && [ "$lineno" -gt "$teststart" ]; then
            continue
        fi
        filtered="${filtered}${line}"$'\n'
    done <<< "$ordering_matches"
    if [ -n "${filtered%$'\n'}" ]; then
        echo "forbid.sh: non-Relaxed atomic ordering outside #[cfg(test)]:" >&2
        printf '%s' "$filtered" >&2
        fail=1
    fi
fi

# Static atomics: process-global mutable state belongs in the dioph-obs
# registry (stable names, stability classes, snapshot/delta semantics), so
# a `static NAME: Atomic*` anywhere else is forbidden. Local `let`-bound
# atomics (the engine's per-call scheduling counters) are fine and don't
# match the pattern. Test modules may declare scratch statics.
static_matches=$(grep -rnE 'static[[:space:]]+[A-Z0-9_]+:[[:space:]]*([a-z:]+::)?Atomic' \
    src crates tests --include='*.rs' | grep -v '^crates/obs/' | grep -v '^\s*//' || true)
if [ -n "$static_matches" ]; then
    filtered=""
    while IFS= read -r line; do
        file="${line%%:*}"
        lineno=$(echo "$line" | cut -d: -f2)
        teststart=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
        if [ -n "$teststart" ] && [ "$lineno" -gt "$teststart" ]; then
            continue
        fi
        filtered="${filtered}${line}"$'\n'
    done <<< "$static_matches"
    if [ -n "${filtered%$'\n'}" ]; then
        echo "forbid.sh: static atomic outside crates/obs (route it through the dioph-obs registry):" >&2
        printf '%s' "$filtered" >&2
        fail=1
    fi
fi

# Unannotated allocations in the hot-loop modules: the files the
# zero-allocation probe loop runs through. A Vec::new()/vec![ here must be
# annotated `// alloc-ok: <reason>` (same line or the line above) or live
# in the file's #[cfg(test)] region. The scratch layer (*/scratch.rs) is
# the sanctioned home for allocation and is deliberately not listed.
hot_loop_files="
crates/linalg/src/row.rs
crates/linalg/src/simplex.rs
crates/linalg/src/feasibility.rs
crates/poly/src/mpi.rs
crates/containment/src/compile.rs
crates/containment/src/decider.rs
"
alloc_filtered=""
for file in $hot_loop_files; do
    matches=$(grep -nE 'Vec::new\(\)|vec!\[' "$file" | grep -v '^\s*//' | grep -v 'alloc-ok' || true)
    [ -n "$matches" ] || continue
    teststart=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
    while IFS= read -r line; do
        lineno="${line%%:*}"
        if [ -n "$teststart" ] && [ "$lineno" -gt "$teststart" ]; then
            continue
        fi
        # Annotation on the preceding line also counts (long expressions).
        if [ "$lineno" -gt 1 ] && sed -n "$((lineno - 1))p" "$file" | grep -q 'alloc-ok'; then
            continue
        fi
        alloc_filtered="${alloc_filtered}${file}:${line}"$'\n'
    done <<< "$matches"
done
if [ -n "${alloc_filtered%$'\n'}" ]; then
    echo "forbid.sh: unannotated allocation in a hot-loop module (recycle via the scratch layer, or annotate '// alloc-ok: <reason>'):" >&2
    printf '%s' "$alloc_filtered" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "forbid.sh: clean"
fi
exit "$fail"
