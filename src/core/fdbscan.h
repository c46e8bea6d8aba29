// FDBSCAN — "fused" DBSCAN (§4.1): batched BVH traversal fused with the
// synchronization-free union-find, within the two-phase GPU framework of
// §3.2.
//
//   Index order: every phase runs over the BVH's *sorted leaf
//   positions*, and the union-find and core flags are indexed by
//   position too, so neighbouring threads touch neighbouring memory in
//   the traversal and in its callbacks alike (§3.2).
//
//   Preprocessing: one thread per position runs an eps-range traversal
//   that terminates as soon as minpts neighbors (including the point
//   itself) are seen; survivors are core points. Skipped entirely for
//   minpts <= 2 (Alg. 3 line 2).
//
//   Main phase: one thread per position i runs a masked traversal that
//   hides every leaf with position < i+1, so each neighboring pair is
//   discovered exactly once; each discovery resolves per Algorithm 3
//   (core-core UNION, core-border CAS claim). A core-core pair whose
//   neighbour already hangs off the thread's cached set member is
//   skipped without a find (UnionFindView::merge_cached).
//
//   Finalization: pointer-jumping flatten + dense relabeling, which
//   writes labels and core flags back by point id. Clusters are
//   numbered in leaf order: the same at any worker count, and equal to
//   any other valid clustering up to renumbering.
//
// Memory is O(n): neighbors are processed on the fly and never stored.
//
// The kernels live in Engine::run() (core/engine.h); this free function
// is the one-shot convenience wrapper — it builds a throwaway engine, so
// every call pays the index build. Callers clustering the same points
// repeatedly (parameter sweeps, serving) should hold an Engine instead.
#pragma once

#include <vector>

#include "core/engine.h"

namespace fdbscan {

template <int DIM>
[[nodiscard]] Clustering fdbscan(const std::vector<Point<DIM>>& points,
                                 const Parameters& params,
                                 const Options& options = {}) {
  // The engine charges the BVH and workspace to its own tracker; routing
  // options.memory there keeps the one-shot accounting equivalent to the
  // historical ScopedCharge scheme (charged for the call, released after).
  Engine<DIM> engine(points, EngineConfig{.memory = options.memory});
  return engine.run(params, options);
}

}  // namespace fdbscan
