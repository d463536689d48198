#!/usr/bin/env bash
# Workspace-wide style gate: formatting must be canonical and clippy
# must be silent (warnings are errors). Offline, like everything else.
#
# Run from anywhere: ./scripts/lint.sh
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

echo "lint: cargo fmt --check"
cargo fmt --all -- --check

echo "lint: cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# The serving layer is long-running multi-tenant code: a panic takes
# every session down, so unwrap is banned outright there (tests use
# expect, which documents intent).
echo "lint: cargo clippy fisheye-serve (deny unwrap_used)"
cargo clippy --offline -p fisheye-serve --no-deps --all-targets -- -D warnings -D clippy::unwrap_used

# Same rule for the streaming pipeline: videopipe library code runs
# inside worker threads for the life of a stream, where a stray unwrap
# kills the whole pipeline (library only; its tests use unwrap freely).
echo "lint: cargo clippy videopipe lib (deny unwrap_used)"
cargo clippy --offline -p videopipe --no-deps --lib -- -D warnings -D clippy::unwrap_used

# The wire codec, shard loop, its readiness waits and the client face
# raw bytes from the network, and every frame a shard serves runs the
# session code in server.rs, which resolves plans through cache.rs:
# wire.rs, shard.rs, readiness.rs, client.rs, server.rs and cache.rs
# carry module-level
#   #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
# (wire.rs additionally denies indexing_slicing), so a panic path
# cannot appear there without deleting the attribute. Clippy enforces
# the attributes in the run above; this check makes sure nobody
# quietly removes them.
echo "lint: wire/shard/readiness/client/server/cache panic-free deny attributes present"
for f in crates/fisheye-serve/src/wire.rs \
         crates/fisheye-serve/src/shard.rs \
         crates/fisheye-serve/src/readiness.rs \
         crates/fisheye-serve/src/client.rs \
         crates/fisheye-serve/src/server.rs \
         crates/fisheye-serve/src/cache.rs; do
  # whitespace-insensitive: rustfmt may wrap the attribute across lines
  tr -d ' \n' < "$f" | grep -q '#!\[deny(clippy::unwrap_used,clippy::expect_used,clippy::panic' \
    || { echo "lint: FAIL ($f lost its panic-free deny attribute)"; exit 1; }
done

# The y4m decoder reads streams from outside the process (files,
# pipes), so it meets wire.rs's bar: the same module-level deny
# attribute, indexing_slicing included, fuzzed in pixmap's proptests.
echo "lint: y4m decoder panic-free deny attribute present"
tr -d ' \n' < crates/pixmap/src/y4m.rs \
  | grep -q '#!\[deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,clippy::indexing_slicing)\]' \
  || { echo "lint: FAIL (crates/pixmap/src/y4m.rs lost its panic-free deny attribute)"; exit 1; }

# readiness.rs holds the serving layer's one `unsafe` block, the
# poll(2) call; it also denies undocumented_unsafe_blocks, so that
# block cannot lose its `// SAFETY:` comment.
echo "lint: readiness.rs denies undocumented unsafe blocks"
tr -d ' \n' < crates/fisheye-serve/src/readiness.rs \
  | grep -q '#!\[deny(clippy::undocumented_unsafe_blocks)\]' \
  || { echo "lint: FAIL (readiness.rs lost its undocumented_unsafe_blocks deny attribute)"; exit 1; }

# Composite workloads run the same module trio inside sessions: rig
# geometry, stereo rectification and the composite plan executor all
# sit behind the serve layer's per-frame path, so they carry the same
# module-level panic-free deny attributes. So does the simd span
# kernel, which every simd frame, single or composite, runs, the plan
# module, whose span kernels and valid-span walk every host frame
# runs, the engine module, whose host dispatch every served frame
# runs, the frame module, whose plane loop every served frame goes
# through, the post module, which grades the rows of every graded
# frame and parses users' `.cube` files for the CLI, and the facade's
# corrector module, which every frame served to a single-camera
# session passes through.
echo "lint: rig/rectify/composite/simd/plan/engine/frame/post/corrector panic-free deny attributes present"
for f in crates/fisheye-geom/src/rig.rs \
         crates/fisheye-geom/src/rectify.rs \
         crates/fisheye-core/src/composite.rs \
         crates/fisheye-core/src/simd.rs \
         crates/fisheye-core/src/plan.rs \
         crates/fisheye-core/src/engine.rs \
         crates/fisheye-core/src/frame.rs \
         crates/fisheye-core/src/post.rs \
         src/corrector.rs; do
  tr -d ' \n' < "$f" | grep -q '#!\[deny(clippy::unwrap_used,clippy::expect_used,clippy::panic' \
    || { echo "lint: FAIL ($f lost its panic-free deny attribute)"; exit 1; }
done

# The codegen crate's emitted kernels end up compiled into other
# programs and its interpreter runs inside the engine registry: the
# whole crate carries
#   #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
# so lowering, emission and the interpreter have no panic paths.
# Clippy enforces the attribute; the grep makes sure nobody quietly
# drops it.
echo "lint: cargo clippy fisheye-codegen (panic-free crate)"
cargo clippy --offline -p fisheye-codegen --no-deps --all-targets -- -D warnings
tr -d ' \n' < crates/fisheye-codegen/src/lib.rs \
  | grep -q '#!\[deny(clippy::unwrap_used,clippy::expect_used,clippy::panic' \
  || { echo "lint: FAIL (fisheye-codegen lost its panic-free deny attribute)"; exit 1; }

# The post stage sits on the per-pixel hot path of every backend and
# inside the serving layer's degrade machinery: a panic there takes
# frames (or sessions) down. post.rs carries the panic-free deny
# attribute checked above (and parse_cube also denies
# indexing_slicing); this run makes the gate observable in CI
# alongside the others.
echo "lint: cargo clippy fisheye-core lib (panic-free post)"
cargo clippy --offline -p fisheye-core --no-deps --lib -- -D warnings

echo "lint: cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "lint: OK"
