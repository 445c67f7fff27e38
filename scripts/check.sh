#!/usr/bin/env bash
# Full pre-merge gate: lint, format, tier-1 build+test, and the golden
# Chrome-trace schema/determinism tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== rustdoc (deny warnings: broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== golden trace schema + determinism =="
cargo test -q -p overflow-d --test observability

echo "== M:N scheduler: 512 virtual ranks on 8 OS threads =="
cargo test -q --release -p overflow-d --test scheduler_modes -- --ignored

echo "== criterion microbenches compile =="
cargo bench --no-run

echo "== repro smoke test =="
./target/release/repro table1 --quick > /dev/null

echo "== inverse-map ablation smoke test =="
ABLATE_OUT="$(./target/release/repro ablate-invmap --quick)"
if grep -q "DIVERGED" <<< "$ABLATE_OUT" || ! grep -q "bit-equal" <<< "$ABLATE_OUT"; then
    echo "ablate-invmap: answers diverged between map on/off" >&2
    exit 1
fi

echo "== arena ablation smoke test =="
ARENA_OUT="$(./target/release/repro ablate-arena --quick)"
if grep -q "DIVERGED" <<< "$ARENA_OUT" || ! grep -q "bit-equal" <<< "$ARENA_OUT"; then
    echo "ablate-arena: answers diverged between arena on/off" >&2
    exit 1
fi
if ! grep -q "ALLOC-GATE: PASS" <<< "$ARENA_OUT"; then
    echo "ablate-arena: allocation-reduction gate failed" >&2
    grep "ALLOC-GATE" <<< "$ARENA_OUT" >&2 || true
    exit 1
fi

echo "== SIMD ablation smoke test =="
# Bit-equality of states/walks/virtual clocks between the lane-batched and
# scalar kernels is required. The host-speedup gate (SIMD-GATE) is advisory
# at quick effort: the quick cases are small and CI hosts are noisy/often
# oversubscribed, so a FAIL is reported but does not fail the check.
SIMD_OUT="$(./target/release/repro ablate-simd --quick)"
if grep -q "DIVERGED" <<< "$SIMD_OUT" || ! grep -q "bit-equal" <<< "$SIMD_OUT"; then
    echo "ablate-simd: results diverged between SIMD on/off" >&2
    exit 1
fi
if ! grep -q "SIMD-GATE: PASS" <<< "$SIMD_OUT"; then
    echo "ablate-simd: host-speedup gate did not pass (advisory at quick effort):" >&2
    grep "SIMD-GATE" <<< "$SIMD_OUT" >&2 || true
fi

echo "== analyzer smoke test =="
./target/release/repro analyze table1 --quick > /dev/null

echo "== analyze-diff smoke: byte-deterministic diff of two quick analyses =="
DIFF_TMP="$(mktemp -d)"
trap 'rm -rf "$DIFF_TMP"' EXIT
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/a.json" > /dev/null
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/b.json" > /dev/null
cmp "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" || {
    echo "analyze --json: two identical quick runs produced different documents" >&2
    exit 1
}
./target/release/repro analyze-diff "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" > "$DIFF_TMP/d1.txt"
./target/release/repro analyze-diff "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" > "$DIFF_TMP/d2.txt"
cmp "$DIFF_TMP/d1.txt" "$DIFF_TMP/d2.txt" || {
    echo "analyze-diff: output not byte-deterministic" >&2
    exit 1
}
grep -q "no wait-state regressions beyond tolerance" "$DIFF_TMP/d1.txt" || {
    echo "analyze-diff: self-diff must report no regressions" >&2
    exit 1
}

echo "== alloc determinism smoke: identical runs must gate-compare clean =="
./target/release/repro report table1 --quick -o "$DIFF_TMP/r1.json" > /dev/null
./target/release/repro report table1 --quick -o "$DIFF_TMP/r2.json" > /dev/null
./target/release/repro compare "$DIFF_TMP/r1.json" "$DIFF_TMP/r2.json" > /dev/null || {
    echo "alloc determinism: two identical quick runs failed the exact gate" >&2
    exit 1
}

echo "== alloc gate smoke: injected allocations must fail the compare =="
./target/release/repro report table1 --quick --inject-alloc 64 -o "$DIFF_TMP/r3.json" > /dev/null
INJECT_RC=0
./target/release/repro compare "$DIFF_TMP/r1.json" "$DIFF_TMP/r3.json" > /dev/null || INJECT_RC=$?
if [[ "$INJECT_RC" != "1" ]]; then
    echo "alloc gate: --inject-alloc 64 should make compare exit 1 (got $INJECT_RC)" >&2
    exit 1
fi

echo "== host report smoke: analyze --host must be byte-deterministic =="
./target/release/repro analyze "$DIFF_TMP/r1.json" --host -o "$DIFF_TMP/h1.txt" > /dev/null
./target/release/repro analyze "$DIFF_TMP/r1.json" --host -o "$DIFF_TMP/h2.txt" > /dev/null
cmp "$DIFF_TMP/h1.txt" "$DIFF_TMP/h2.txt" || {
    echo "analyze --host: output not byte-deterministic" >&2
    exit 1
}

echo "== multi-process transport: bit-equality smoke =="
SMOKE_OUT="$(./target/release/repro smoke)"
if ! grep -q "bit-equal" <<< "$SMOKE_OUT"; then
    echo "transport smoke: proc and inproc backends diverged" >&2
    exit 1
fi

echo "== multi-process transport: killed-child robustness =="
cargo test -q --release -p overset-comm --test transport_conformance killed_child

echo "== perf regression gate =="
./scripts/bench_gate.sh

echo "== repository benchmark: build + own tests (virt_step_s vs BENCH_quick.json) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
