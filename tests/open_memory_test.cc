// Memory-profile tests for Engine::Open and LoadIndexFile.
//
// A node exists once, as its .stpqx slot.  Opening a file must not copy
// or decode the node segments: the loader verifies them in one streaming
// pass and the opened trees read their slots in place from the page
// store's mapping.  Those slots are the bytes the building engine holds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "rtree/rtree.h"

namespace stpq {
namespace {

class OpenMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_open_memory_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Builds and saves an SRT index with a few hundred nodes per tree.
  std::string SaveIndex() {
    SyntheticConfig cfg;
    cfg.seed = 7;
    cfg.num_objects = 2000;
    cfg.num_features_per_set = 2000;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 48;
    cfg.num_clusters = 32;
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.storage.page_size = 256;
    built_ = std::make_unique<Engine>(
        Engine::Build(ds.objects,
                      std::vector<FeatureTable>(ds.feature_tables), opts)
            .TakeValue());
    std::string path = (dir_ / "idx.stpqx").string();
    EXPECT_TRUE(built_->Save(path).ok());
    return path;
  }

  static const RTree<4, SrtAug>& SrtTree(const Engine& engine, size_t i) {
    return dynamic_cast<const SrtIndex&>(engine.feature_index(i)).tree();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Engine> built_;
};

TEST_F(OpenMemoryTest, MappedOpenedTreeOwnsNoNodeBytes) {
  const std::string path = SaveIndex();
  Result<Engine> opened = Engine::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& store =
      dynamic_cast<const FilePageStore&>(opened.value().page_store());
  ASSERT_NE(store.mapped_data(), nullptr);

  const RTree<2>& object_tree = opened.value().object_index().tree();
  EXPECT_GT(object_tree.node_count(), 100u);
  EXPECT_EQ(object_tree.owned_slot_bytes(), 0u);
  for (size_t i = 0; i < opened.value().num_feature_sets(); ++i) {
    EXPECT_GT(SrtTree(opened.value(), i).node_count(), 0u);
    EXPECT_EQ(SrtTree(opened.value(), i).owned_slot_bytes(), 0u) << i;
  }
  // The built trees own exactly their slots.
  EXPECT_EQ(built_->object_index().tree().owned_slot_bytes(),
            built_->object_index().tree().slots().size());
}

TEST_F(OpenMemoryTest, OpenedSlotsAreByteEqualToBuiltTree) {
  const std::string path = SaveIndex();
  Result<Engine> opened = Engine::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().object_index().tree().slots(),
            built_->object_index().tree().slots());
  for (size_t i = 0; i < built_->num_feature_sets(); ++i) {
    EXPECT_EQ(SrtTree(opened.value(), i).slots(), SrtTree(*built_, i).slots())
        << i;
  }
}

}  // namespace
}  // namespace stpq
