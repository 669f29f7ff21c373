// Fork-join data parallelism (OpenMP "parallel for" idiom) on a persistent
// inner team.
//
// Used for the *inner* level of the two-level parallelization scheme:
// distributing statevector kernel passes, per-edge expectation values or
// tensor-contraction work across threads inside one candidate evaluation.
//
// Every thread that forks inner work owns one team of helper threads,
// thread-local and built on its first fork (an EvalService worker keeps one
// for its lifetime). A fork hands the range to the caller and up to
// `workers - 1` helpers; the helpers park on a condition variable between
// forks, so a kernel pass costs a wake-up, not a thread creation. The team
// grows when a call asks for more helpers and is joined when its owner
// thread exits. A parallel_for issued from inside a forked body runs inline
// on that thread, so nesting can neither deadlock on a busy team nor
// oversubscribe the cores. A fork()ed child process builds a fresh team on
// its first fork: it inherits the forking thread's team but none of its
// helper threads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace qarch::parallel {

/// Runs body(i) for i in [begin, end) on up to `workers` threads: the caller
/// and the helpers of its inner team (see the file comment).
///
/// Work is distributed dynamically in chunks via an atomic counter (the
/// OpenMP `schedule(dynamic)` idiom) so uneven task costs balance well.
/// Exceptions thrown by the body are captured and the first one rethrown on
/// the calling thread once no helper is still running the call's chunks.
/// `workers` = 0 means all hardware threads; at 1, or inside another call's
/// body, the range runs inline on the caller.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers = 0, std::size_t chunk = 1);

/// Runs body(lo, hi) over contiguous sub-ranges of [begin, end) of at most
/// `block` elements each, distributed dynamically across `workers` threads.
/// The range-based sibling of parallel_for: one callable invocation per
/// BLOCK instead of per index, so vectorized loop bodies (SIMD statevector
/// passes) keep their throughput under dynamic scheduling. Blocks start at
/// begin + j*block, so a power-of-two `block` with an aligned `begin`
/// guarantees aligned sub-ranges.
inline void parallel_for_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t workers = 0, std::size_t block = 4096) {
  if (begin >= end) return;
  if (block == 0) block = 1;
  if (workers == 0)  // family convention: 0 = all hardware threads
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t num_blocks = (end - begin + block - 1) / block;
  if (workers <= 1 || num_blocks <= 1) {
    body(begin, end);
    return;
  }
  const auto run_block = [&](std::size_t j) {
    const std::size_t lo = begin + j * block;
    body(lo, std::min(end, lo + block));
  };
  // A one-reference lambda fits std::function's local buffer, so a fork
  // allocates nothing; run_block's four captures would not.
  parallel_for(0, num_blocks, [&run_block](std::size_t j) { run_block(j); },
               workers, 1);
}

/// Parallel map: applies fn to each element of `inputs`, preserving order.
template <typename In, typename Fn>
auto parallel_map(const std::vector<In>& inputs, Fn&& fn,
                  std::size_t workers = 0)
    -> std::vector<decltype(fn(inputs.front()))> {
  using Out = decltype(fn(inputs.front()));
  std::vector<Out> out(inputs.size());
  const auto apply = [&](std::size_t i) { out[i] = fn(inputs[i]); };
  // One reference, like parallel_for_blocks: `out` is the only allocation.
  parallel_for(0, inputs.size(), [&apply](std::size_t i) { apply(i); },
               workers);
  return out;
}

/// Parallel reduction over contiguous blocks (OpenMP `reduction` idiom).
///
/// Splits [begin, end) into one contiguous block per worker (static schedule
/// — intended for uniform per-element cost like statevector sweeps), runs
/// `block(lo, hi)` on each, and folds the per-block partials IN INDEX ORDER
/// with `combine` on the calling thread. Deterministic for a fixed worker
/// count. Exceptions from blocks are rethrown once every block has ended.
template <typename T, typename BlockFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                  const BlockFn& block, const CombineFn& combine,
                  std::size_t workers = 0) {
  if (begin >= end) return identity;
  const std::size_t n = end - begin;
  if (workers == 0)
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);

  if (workers <= 1) return combine(std::move(identity), block(begin, end));

  // One contiguous [lo, hi) block per worker; parallel_map supplies the
  // team, exception capture, and ordered results.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  blocks.reserve(workers);
  const std::size_t per = n / workers, extra = n % workers;
  std::size_t lo = begin;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t hi = lo + per + (w < extra ? 1 : 0);
    blocks.emplace_back(lo, hi);
    lo = hi;
  }
  auto partials = parallel_map(
      blocks, [&](const std::pair<std::size_t, std::size_t>& b) {
        return block(b.first, b.second);
      },
      workers);
  T out = std::move(identity);
  for (auto& p : partials) out = combine(std::move(out), std::move(p));
  return out;
}

}  // namespace qarch::parallel
