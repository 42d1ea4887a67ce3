// Deep structural invariant validators.
//
// Every validator returns Status::OK() on a healthy structure and a
// non-OK Status whose message names the violated invariant and the path to
// the offending node/entry (e.g. "root->n12[e3]: child MBR not contained").
// They never abort, so tests can exercise deliberate corruption, and the
// `stpq_cli validate` subcommand can report violations to users.
//
// Index build paths run these behind the STPQ_VALIDATE macro
// (util/logging.h): enabled in debug builds, compiled away in release, so
// later refactors of the bulk-load/insert/split machinery get an automatic
// safety net under `ctest` without taxing production binaries.
#ifndef STPQ_DEBUG_VALIDATE_H_
#define STPQ_DEBUG_VALIDATE_H_

#include <string>
#include <vector>

#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace stpq {

namespace validate_internal {

/// "root" for the root node, "root->n12[e3]" for node 12 reached through
/// entry 3 of its parent, and so on.
inline std::string ChildPath(const std::string& parent_path, NodeId child,
                             size_t entry_slot) {
  return parent_path + "->n" + std::to_string(child) + "[e" +
         std::to_string(entry_slot) + "]";
}

/// "[lo0,hi0]x[lo1,hi1]..." for violation messages.
template <int D>
std::string FormatRect(const Rect<D>& r) {
  std::string out;
  for (int d = 0; d < D; ++d) {
    out += (d == 0 ? "[" : "x[") + std::to_string(r.lo[d]) + "," +
           std::to_string(r.hi[d]) + "]";
  }
  return out;
}

}  // namespace validate_internal

/// Structural validation of an R-tree:
///   * node levels decrease by exactly one per step and all leaves sit at
///     level 0 (uniform leaf depth);
///   * every node holds between 1 and max_entries entries (bulk loading may
///     legally leave tail nodes under the insertion-path minimum fill);
///   * each internal entry's MBR is exactly the union of its child's entry
///     MBRs (containment + tightness);
///   * no node is reachable twice (no sharing/cycles) and every allocated
///     node is reachable;
///   * the number of leaf records equals tree.size().
///
/// `summary_check(parent_entry, child_entry)` is called for every entry of
/// every child node against the parent entry summarizing that node — the
/// hook where augmentation dominance (max-score bounds, keyword supersets)
/// is verified.  `entry_check(entry, is_leaf)` is called once per entry for
/// self-consistency checks.  Both return Status; ValidateRTree prefixes the
/// node path to whatever message they produce.
template <int D, typename Aug, typename SummaryCheck, typename EntryCheck>
Status ValidateRTree(const RTree<D, Aug>& tree, SummaryCheck&& summary_check,
                     EntryCheck&& entry_check) {
  using Tree = RTree<D, Aug>;
  using View = typename Tree::View;
  using Entry = typename Tree::Entry;
  using validate_internal::ChildPath;
  using validate_internal::FormatRect;

  if (tree.root_id() == kInvalidNodeId) {
    if (tree.height() != 0) {
      return Status::Internal("empty R-tree has height " +
                              std::to_string(tree.height()));
    }
    if (tree.size() != 0) {
      return Status::Internal("empty R-tree reports size " +
                              std::to_string(tree.size()));
    }
    return Status::OK();
  }
  if (tree.root_id() >= tree.node_count()) {
    return Status::Internal("root id " + std::to_string(tree.root_id()) +
                            " out of range (node count " +
                            std::to_string(tree.node_count()) + ")");
  }

  std::vector<bool> visited(tree.node_count(), false);
  uint64_t leaf_records = 0;

  struct Frame {
    NodeId id;
    uint16_t expected_level;
    std::string path;
  };
  std::vector<Frame> stack;
  stack.push_back(
      {tree.root_id(), static_cast<uint16_t>(tree.height() - 1), "root"});

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (visited[frame.id]) {
      return Status::Internal(frame.path + ": node " +
                              std::to_string(frame.id) +
                              " reachable through two paths (shared subtree "
                              "or cycle)");
    }
    visited[frame.id] = true;

    const View node = tree.PeekView(frame.id);
    const uint32_t max_entries = tree.options().geometry.max_entries;
    if (node.level() != frame.expected_level) {
      return Status::Internal(
          frame.path + ": node level " + std::to_string(node.level()) +
          " does not match expected depth level " +
          std::to_string(frame.expected_level) +
          " (leaf depth must be uniform)");
    }
    if (node.count() == 0) {
      return Status::Internal(frame.path + ": node has no entries");
    }
    if (node.count() > max_entries) {
      return Status::Internal(
          frame.path + ": node holds " + std::to_string(node.count()) +
          " entries, above max_entries " + std::to_string(max_entries));
    }

    // The header is sound, so the entries can be decoded.
    const std::vector<Entry> entries = tree.PeekNode(frame.id).entries;
    for (uint32_t i = 0; i < node.count(); ++i) {
      Status entry_st = entry_check(entries[i], node.IsLeaf());
      if (!entry_st.ok()) {
        return Status::Internal(frame.path + "[e" + std::to_string(i) +
                                "]: " + entry_st.message());
      }
    }

    if (node.IsLeaf()) {
      leaf_records += node.count();
      continue;
    }

    for (uint32_t i = 0; i < node.count(); ++i) {
      const Entry& e = entries[i];
      if (e.id >= tree.node_count()) {
        return Status::Internal(frame.path + "[e" + std::to_string(i) +
                                "]: child node id " + std::to_string(e.id) +
                                " out of range");
      }
      const uint32_t child_count = tree.PeekView(e.id).count();
      const std::string child_path = ChildPath(frame.path, e.id, i);
      if (child_count == 0 || child_count > max_entries) {
        return Status::Internal(child_path + ": child node holds " +
                                std::to_string(child_count) + " entries");
      }
      const std::vector<Entry> child = tree.PeekNode(e.id).entries;
      // The parent entry's MBR must be the exact union of the child's MBRs.
      Rect<D> unioned = child[0].rect;
      for (uint32_t j = 1; j < child_count; ++j) unioned.Enlarge(child[j].rect);
      for (int d = 0; d < D; ++d) {
        if (unioned.lo[d] != e.rect.lo[d] || unioned.hi[d] != e.rect.hi[d]) {
          return Status::Internal(
              child_path + ": parent entry MBR " + FormatRect(e.rect) +
              " is not the exact union " + FormatRect(unioned) +
              " of the child's entry MBRs (dim " + std::to_string(d) + ")");
        }
      }
      for (uint32_t j = 0; j < child_count; ++j) {
        Status st = summary_check(e, child[j]);
        if (!st.ok()) {
          return Status::Internal(child_path + "[e" + std::to_string(j) +
                                  "]: " + st.message());
        }
      }
      stack.push_back({e.id, static_cast<uint16_t>(frame.expected_level - 1),
                       child_path});
    }
  }

  if (leaf_records != tree.size()) {
    return Status::Internal(
        "tree reports size " + std::to_string(tree.size()) + " but holds " +
        std::to_string(leaf_records) + " leaf records");
  }
  uint64_t reached = 0;
  for (bool v : visited) reached += v ? 1 : 0;
  if (reached != tree.node_count()) {
    return Status::Internal(
        std::to_string(reached) + " reachable nodes do not account for all " +
        std::to_string(tree.node_count()) + " allocated nodes");
  }
  return Status::OK();
}

/// Structure-only overload (no augmentation checks).
template <int D, typename Aug>
Status ValidateRTree(const RTree<D, Aug>& tree) {
  auto no_summary = [](const auto&, const auto&) { return Status::OK(); };
  auto no_entry = [](const auto&, bool) { return Status::OK(); };
  return ValidateRTree<D, Aug>(tree, no_summary, no_entry);
}

/// SRT-index validation (Section 4 invariants): R-tree structure, per-entry
/// aggregate score upper bounds dominating children, node keyword sets
/// supersets of their children, Hilbert values in canonical form (no bits
/// beyond the keyword universe), leaf entries matching the feature table,
/// and — for Hilbert bulk loads — non-decreasing Hilbert keys across the
/// leaf level.
[[nodiscard]] Status ValidateSrtIndex(const SrtIndex& index);

/// Modified IR2-tree validation: R-tree structure, max-score dominance,
/// node signatures covering child signatures, and leaf signatures/scores
/// matching the feature table.
[[nodiscard]] Status ValidateIr2Tree(const Ir2Tree& index);

/// Object R-tree validation: structure plus a bijection between leaf
/// records and the object collection.
[[nodiscard]] Status ValidateObjectIndex(const ObjectIndex& index);

// ValidateBufferPool is declared in storage/buffer_pool.h (it needs friend
// access); re-exported here so validators have one include point.

}  // namespace stpq

#endif  // STPQ_DEBUG_VALIDATE_H_
