#!/usr/bin/env bash
# The full verification gate. CI's `check` job runs exactly this script, so
# a step added here is gated there.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Clippy also holds the structural gates (clippy.toml, and the `deny`s at
# the crate roots): no wall clock outside the thread kernel and the
# benches, no panics in the server paths, and one server loop — only
# `vservers::common::serve` calls `Ipc::{receive, reply, forward}` in the
# server crates.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc comment that links to a deleted or renamed item fails here. The
# vendored `proptest` stand-in is left out: its own docs carry an ambiguous
# `vec` link.
echo "==> cargo doc --workspace --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --workspace --no-deps --exclude proptest -q

echo "==> cargo run -p vcheck -- --json vcheck-report.json   (protocol lints + allow ratchet + determinism gate + invariant gate)"
cargo run -p vcheck -- --json vcheck-report.json

# One cost model: every 1984 millisecond is charged by the virtual-time
# kernel, so the thread kernel names no part of `vnet`'s cost model. This
# stays a grep: `clippy.toml` applies per crate, and `thread.rs` shares
# `vkernel` with `sim.rs`, which uses `vnet`.
echo "==> one cost model: no NetModel/Params1984/vnet:: in crates/vkernel/src/thread.rs"
if grep -nE 'NetModel|Params1984|vnet::' crates/vkernel/src/thread.rs; then
    echo "error: the lines above put a cost model in the thread kernel" >&2
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

# The plane properties must hold for any fault schedule, not just the
# default one: the seed-parameterised suites (one binary, `planes`) run
# under every seed. CI calls this script, so the matrix is defined here
# and nowhere else.
SEEDS=(0x1984 271828)
for seed in "${SEEDS[@]}"; do
    echo "==> seed matrix: planes under VSIM_FAULT_SEED=$seed"
    VSIM_FAULT_SEED=$seed cargo test -q -p vsim --test planes
done

# `cargo test -q` above already ran these, but an explicit invocation keeps
# the pinned schedules in proptest-regressions/ visibly load-bearing: every
# property replays each `cc` seed before generating novel cases.
echo "==> anti-entropy proptests (pinned regression seeds + novel cases)"
cargo test -q -p vservers --test anti_entropy_props

echo "==> cargo build --release"
cargo build --release

# The benchmark's own smoke run: every workload at reduced scale, every
# reply checked against the generator's model — so a kernel change that
# breaks an answer fails here, before the benchmark does. `vload` is a
# workspace of its own; its lock file must come out of the build unchanged,
# or some crate it reaches changed its dependency list.
echo "==> cargo test --offline --manifest-path vload/Cargo.toml"
cargo test -q --offline --manifest-path vload/Cargo.toml
git diff --exit-code vload/Cargo.lock

echo "==> all checks passed"
