// Synchronization-free union-find after Jaiganesh & Burtscher, "A
// High-Performance Connected Components Implementation for GPUs" (HPDC'18)
// — the algorithm the paper selects for its UNION-FIND kernels (§4).
//
// The disjoint-set forest lives in a flat `labels` array: labels[v] is the
// parent of v, and roots satisfy labels[root] == root. Three properties
// make it safe without locks:
//   * hooking always attaches the *larger* root under the smaller one, so
//     parent chains are strictly decreasing and cycles are impossible;
//   * hooking is a single CAS on a root's own slot, retried on conflict;
//   * FIND uses "intermediate pointer jumping": every node on the walk is
//     re-pointed to its grandparent (halving path length), which is a
//     benign data race (all writes move labels closer to the root).
//
// A separate flatten() finalization kernel makes every label point
// directly to its representative — the paper's extra finalization phase.
//
// DBSCAN-specific use: a *border* point y is claimed by a cluster via a
// single CAS labels[y]: y -> representative. That replaces the critical
// section of Algorithm 3 (lines 10-12) and prevents the "bridging" effect:
// only one cluster can win the CAS, and border points are never used as
// hooking endpoints afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"

namespace fdbscan {

/// View over a labels array providing the concurrent UNION/FIND kernels.
/// The view does not own the storage; it is trivially copyable so kernels
/// can capture it by value, as a GPU kernel would.
class UnionFindView {
 public:
  UnionFindView(std::int32_t* labels, std::int32_t n) noexcept
      : labels_(labels), n_(n) {}

  std::int32_t size() const noexcept { return n_; }
  std::int32_t* labels() noexcept { return labels_; }

  /// FIND with intermediate pointer jumping. Safe to call concurrently
  /// with other find/merge operations.
  std::int32_t representative(std::int32_t v) const noexcept {
    std::int32_t curr = exec::atomic_load_relaxed(labels_[v]);
    if (curr != v) {
      std::int32_t prev = v;
      std::int32_t next;
      while (curr > (next = exec::atomic_load_relaxed(labels_[curr]))) {
        // Point prev at its grandparent; a stale write only lengthens a
        // path that another thread will re-shorten.
        exec::atomic_store_relaxed(labels_[prev], next);
        prev = curr;
        curr = next;
      }
    }
    return curr;
  }

  /// UNION of the sets containing u and v (both must currently be valid
  /// set members, i.e. reachable chains — core points in DBSCAN terms).
  /// Returns the root the merge ended on. Another merge may hook it
  /// later, but it stays a member of the joined set: sets only grow.
  std::int32_t merge(std::int32_t u, std::int32_t v) const noexcept {
    std::int32_t u_rep = representative(u);
    std::int32_t v_rep = representative(v);
    while (u_rep != v_rep) {
      // Hook the larger root under the smaller to keep chains decreasing.
      if (u_rep > v_rep) {
        std::int32_t expected = u_rep;
        if (exec::atomic_cas(labels_[u_rep], expected, v_rep)) return v_rep;
        u_rep = representative(expected);
      } else {
        std::int32_t expected = v_rep;
        if (exec::atomic_cas(labels_[v_rep], expected, u_rep)) return u_rep;
        v_rep = representative(expected);
      }
    }
    return u_rep;
  }

  /// merge(member, v) for a caller joining many points into one set (a
  /// traversal's core neighbours): `member` is a member of that set the
  /// caller keeps across calls. It stays a member forever, so v's parent
  /// being `member` proves v is already joined, and the finds and the
  /// merge are skipped. Otherwise `member` becomes the root the merge
  /// ended on, the shortest walk for the next find.
  void merge_cached(std::int32_t& member, std::int32_t v) const noexcept {
    if (exec::atomic_load_relaxed(labels_[v]) != member) {
      member = merge(member, v);
    }
  }

  /// Attempt to claim an unassigned point y for the cluster represented
  /// by (a chain leading to) `into`. Returns true if this call won the
  /// claim; false if y already belongs to some cluster (possibly this
  /// one). This is Algorithm 3's critical section as a single CAS.
  bool claim(std::int32_t y, std::int32_t into) const noexcept {
    // An assigned point never becomes unassigned again: skip the find
    // (and its path-halving writes) ahead of a CAS that must fail.
    if (exec::atomic_load_relaxed(labels_[y]) != y) return false;
    std::int32_t expected = y;
    return exec::atomic_cas(labels_[y], expected, representative(into));
  }

  /// True iff y has not been claimed by / merged into any set.
  bool unassigned(std::int32_t y) const noexcept {
    return exec::atomic_load(labels_[y]) == y;
  }

 private:
  std::int32_t* labels_;
  std::int32_t n_;
};

/// Initialize labels to the singleton forest {0}, {1}, ..., {n-1}.
inline void init_singletons(std::int32_t* labels, std::int32_t n) {
  exec::parallel_for("union-find/init-singletons", n, [labels](std::int64_t i) {
    labels[i] = static_cast<std::int32_t>(i);
  });
}

inline void init_singletons(std::vector<std::int32_t>& labels) {
  init_singletons(labels.data(), static_cast<std::int32_t>(labels.size()));
}

/// Finalization kernel: after this, labels[v] is the root of v's set for
/// every v (the paper's extra phase ensuring all paths are compressed).
inline void flatten(std::int32_t* labels, std::int32_t n) {
  exec::parallel_for("union-find/flatten", n, [labels](std::int64_t v) {
    std::int32_t curr = exec::atomic_load_relaxed(labels[v]);
    std::int32_t next;
    while (curr != (next = exec::atomic_load_relaxed(labels[curr]))) {
      curr = next;
    }
    exec::atomic_store_relaxed(labels[v], curr);
  });
}

inline void flatten(std::vector<std::int32_t>& labels) {
  flatten(labels.data(), static_cast<std::int32_t>(labels.size()));
}

/// Sequential disjoint-set (rank + full path compression): the reference
/// implementation used by tests and the serial baselines.
class SequentialDSU {
 public:
  explicit SequentialDSU(std::int32_t n)
      : parent_(static_cast<std::size_t>(n)), rank_(static_cast<std::size_t>(n), 0) {
    for (std::int32_t i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }

  std::int32_t find(std::int32_t v) {
    std::int32_t root = v;
    while (parent_[static_cast<std::size_t>(root)] != root)
      root = parent_[static_cast<std::size_t>(root)];
    while (parent_[static_cast<std::size_t>(v)] != root) {
      std::int32_t next = parent_[static_cast<std::size_t>(v)];
      parent_[static_cast<std::size_t>(v)] = root;
      v = next;
    }
    return root;
  }

  /// Returns true if u and v were in different sets.
  bool unite(std::int32_t u, std::int32_t v) {
    u = find(u);
    v = find(v);
    if (u == v) return false;
    auto& ru = rank_[static_cast<std::size_t>(u)];
    auto& rv = rank_[static_cast<std::size_t>(v)];
    if (ru < rv) std::swap(u, v);
    parent_[static_cast<std::size_t>(v)] = u;
    if (ru == rv) ++rank_[static_cast<std::size_t>(u)];
    return true;
  }

  std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(parent_.size());
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int8_t> rank_;
};

}  // namespace fdbscan
