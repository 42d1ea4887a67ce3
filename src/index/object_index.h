// ObjectIndex: the R-tree over the data objects O ("rtree" in the paper).
#ifndef STPQ_INDEX_OBJECT_INDEX_H_
#define STPQ_INDEX_OBJECT_INDEX_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "index/feature.h"
#include "rtree/rtree.h"
#include "util/metrics.h"

namespace stpq {

/// Build-time knobs for the object index.
struct ObjectIndexOptions {
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  BufferPool* buffer_pool = nullptr;
  PageId page_base = 0;
  double fill = 1.0;
};

/// 2-D R-tree over data objects, Hilbert bulk-loaded.
class ObjectIndex {
 public:
  /// Builds over `objects` (not owned; must outlive the index), or adopts
  /// `restored`, a persisted tree (io/index_file.*), instead of bulk
  /// loading.  The spatial domain is computed from `objects` either way.
  ObjectIndex(const std::vector<DataObject>* objects,
              const ObjectIndexOptions& options,
              std::optional<RestoredTreeData> restored = std::nullopt);

  /// Page geometry: a plain 2-D R-tree, no augmentation.
  static TreeGeometry Geometry(uint32_t page_size_bytes);

  const DataObject& Get(ObjectId id) const { return (*objects_)[id]; }
  size_t size() const { return objects_->size(); }

  /// Ids of all objects within Euclidean distance `radius` of `center`.
  /// With `stats`, node expansions land in the object-tree traversal
  /// profile (and as trace instants).
  std::vector<ObjectId> RangeQuery(const Point& center, double radius,
                                   QueryStats* stats = nullptr) const;

  /// Calls `fn` once per leaf node with the leaf's object ids and its MBR.
  /// Used by batched STDS: each leaf is a spatially clustered batch.
  /// With `stats`, node expansions land in the object-tree traversal
  /// profile (and as trace instants).
  void ForEachLeafBlock(
      const std::function<void(std::span<const ObjectId>, const Rect2&)>& fn,
      QueryStats* stats = nullptr) const;

  /// Underlying tree for custom traversals (STPS object retrieval).
  const RTree<2>& tree() const { return tree_; }

  /// Mutable tree access for deliberate-corruption invariant tests only.
  [[nodiscard]] RTree<2>& mutable_tree_for_test() { return tree_; }

  BufferPool* buffer_pool() const { return tree_.options().buffer_pool; }

  /// Spatial bounding box of all data objects (the NN variant's Voronoi
  /// domain).
  const Rect2& domain() const { return domain_; }

 private:
  const std::vector<DataObject>* objects_;
  RTree<2> tree_;
  Rect2 domain_ = Rect2::Empty();
};

}  // namespace stpq

#endif  // STPQ_INDEX_OBJECT_INDEX_H_
