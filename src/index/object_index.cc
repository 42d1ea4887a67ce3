#include "index/object_index.h"

#include "debug/validate.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"

namespace stpq {

TreeGeometry ObjectIndex::Geometry(uint32_t page_size_bytes) {
  TreeGeometry g;
  g.max_entries = FanOutForPage(page_size_bytes, 2, /*aug_bytes=*/0);
  g.page_size = page_size_bytes;
  return g;
}

ObjectIndex::ObjectIndex(const std::vector<DataObject>* objects,
                         const ObjectIndexOptions& options,
                         std::optional<RestoredTreeData> restored)
    : objects_(objects),
      tree_(TreeOptionsFor(options, Geometry(options.page_size_bytes))) {
  for (const DataObject& o : *objects_) domain_.Enlarge(PointRect(o.pos));
  if (restored.has_value()) {
    tree_.Adopt(std::move(*restored));
  } else {
    using Entry = RTree<2>::Entry;
    std::vector<Entry> records;
    records.reserve(objects_->size());
    for (size_t i = 0; i < objects_->size(); ++i) {
      records.push_back(
          Entry{PointRect((*objects_)[i].pos), static_cast<uint32_t>(i), {}});
    }
    SortByHilbertKey<2, NoAug>(&records, domain_, kHilbertBitsPerDim);
    tree_.BulkLoadSorted(records, options.fill);
  }
  STPQ_VALIDATE(ValidateObjectIndex(*this));
}

std::vector<ObjectId> ObjectIndex::RangeQuery(const Point& center,
                                              double radius,
                                              QueryStats* stats) const {
  std::vector<ObjectId> out;
  if (tree_.root_id() == kInvalidNodeId) return out;
  Rect2 box = MakeRect2(center.x - radius, center.y - radius,
                        center.x + radius, center.y + radius);
  const double r2 = radius * radius;
  // Depth-first with a LIFO stack; node expansions feed the traversal
  // profile.
  std::vector<NodeId> stack{tree_.root_id()};
  while (!stack.empty()) {
    NodeId nid = stack.back();
    stack.pop_back();
    const RTree<2>::View node = tree_.ReadNode(nid);
    uint32_t pruned = 0;
    uint32_t descended = 0;
    for (uint32_t i = 0; i < node.count(); ++i) {
      const Rect2 rect = node.rect(i);
      const uint32_t id = node.id(i);
      if (!box.Intersects(rect)) {
        ++pruned;
        continue;
      }
      if (node.IsLeaf()) {
        Point p{rect.lo[0], rect.lo[1]};
        if (SquaredDistance(p, center) <= r2) {
          out.push_back(id);
          ++descended;
        } else {
          ++pruned;
        }
      } else {
        stack.push_back(id);
        ++descended;
      }
    }
    if (stats != nullptr) {
      RecordNodeVisit(*stats, kTraceObjectTree, node.level(), nid, pruned,
                      descended);
    }
  }
  return out;
}

void ObjectIndex::ForEachLeafBlock(
    const std::function<void(std::span<const ObjectId>, const Rect2&)>& fn,
    QueryStats* stats) const {
  if (tree_.root_id() == kInvalidNodeId) return;
  std::vector<NodeId> stack{tree_.root_id()};
  std::vector<ObjectId> ids;
  while (!stack.empty()) {
    NodeId nid = stack.back();
    stack.pop_back();
    const RTree<2>::View node = tree_.ReadNode(nid);
    if (node.IsLeaf()) {
      ids.clear();
      Rect2 mbr = Rect2::Empty();
      for (uint32_t i = 0; i < node.count(); ++i) {
        ids.push_back(node.id(i));
        mbr.Enlarge(node.rect(i));
      }
      fn(ids, mbr);
    } else {
      for (uint32_t i = 0; i < node.count(); ++i) stack.push_back(node.id(i));
    }
    if (stats != nullptr) {
      // A full scan prunes nothing: every entry is handed on.
      RecordNodeVisit(*stats, kTraceObjectTree, node.level(), nid, 0,
                      node.count());
    }
  }
}

}  // namespace stpq
