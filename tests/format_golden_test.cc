// Format-pinning golden digests for the .stpqx writer.
//
// Engine::Save and BuildIndexFileExternal share one codec, one segment
// planner and one header writer, so a format change moves both writers
// together and bulk_load_test's byte-identity check cannot see it.  These
// tests pin the FNV-1a64 of whole fixture files against constants: any
// change to the bytes of a .stpqx file fails here and must come with a
// version bump and new constants.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "io/index_format.h"

namespace stpq {
namespace {

// Whole-file FNV-1a64 digests of the fixtures below.
constexpr uint64_t kSrtHilbertDigest = 0x1b92effa4f273421ULL;
constexpr uint64_t kIr2HilbertDigest = 0x39f922f91678e847ULL;
constexpr uint64_t kSrtInsertDigest = 0x56a3afaf8b242a11ULL;
constexpr uint64_t kEmptyTableDigest = 0x50a1de370705be65ULL;

class FormatGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_format_golden_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  /// The synthetic settings bulk_load_test builds its fixtures from.
  static Dataset SmallDataset() {
    SyntheticConfig cfg;
    cfg.seed = 7;
    cfg.num_objects = 400;
    cfg.num_features_per_set = 400;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 48;
    cfg.num_clusters = 32;
    return GenerateSynthetic(cfg);
  }

  static EngineOptions Options(FeatureIndexKind kind, BulkLoadKind bulk) {
    EngineOptions opts;
    opts.index_kind = kind;
    opts.bulk_load = bulk;
    opts.storage.page_size = 256;  // small pages -> trees with real depth
    return opts;
  }

  static uint64_t FileDigest(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return index_format::Fnv1a64(bytes.data(), bytes.size());
  }

  uint64_t SavedDigest(const Dataset& ds, const EngineOptions& opts,
                       const char* name) {
    Result<Engine> engine = Engine::Build(
        ds.objects, std::vector<FeatureTable>(ds.feature_tables), opts);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    const std::string path = Path(name);
    const Status s = engine.value().Save(path, ds.vocabularies);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return FileDigest(path);
  }

  /// The external loader pins to the same constant as Save.
  uint64_t ExternalDigest(const Dataset& ds, const EngineOptions& opts,
                          const char* name) {
    const std::string data = Path("data.stpq");
    Status s = WriteDatasetBinary(data, ds);
    EXPECT_TRUE(s.ok()) << s.ToString();
    ExternalBuildOptions ext;
    ext.params.index_kind = opts.index_kind;
    ext.params.bulk_load = opts.bulk_load;
    ext.params.page_size_bytes = opts.storage.page_size;
    const std::string path = Path(name);
    Result<ExternalBuildStats> stats = BuildIndexFileExternal(data, path, ext);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return FileDigest(path);
  }

  std::filesystem::path dir_;
};

TEST_F(FormatGoldenTest, SrtHilbert) {
  const Dataset ds = SmallDataset();
  const EngineOptions opts =
      Options(FeatureIndexKind::kSrt, BulkLoadKind::kHilbert);
  EXPECT_EQ(SavedDigest(ds, opts, "srt.stpqx"), kSrtHilbertDigest);
  EXPECT_EQ(ExternalDigest(ds, opts, "srt_ext.stpqx"), kSrtHilbertDigest);
}

TEST_F(FormatGoldenTest, Ir2Hilbert) {
  const Dataset ds = SmallDataset();
  const EngineOptions opts =
      Options(FeatureIndexKind::kIr2, BulkLoadKind::kHilbert);
  EXPECT_EQ(SavedDigest(ds, opts, "ir2.stpqx"), kIr2HilbertDigest);
  EXPECT_EQ(ExternalDigest(ds, opts, "ir2_ext.stpqx"), kIr2HilbertDigest);
}

TEST_F(FormatGoldenTest, SrtInsert) {
  // Guttman insertion instead of bulk packing: the split order, not the
  // packer, decides which slot holds which node.
  const Dataset ds = SmallDataset();
  EXPECT_EQ(SavedDigest(ds, Options(FeatureIndexKind::kSrt,
                                    BulkLoadKind::kInsert),
                        "insert.stpqx"),
            kSrtInsertDigest);
}

TEST_F(FormatGoldenTest, EmptyTable) {
  // Objects and one populated table next to an empty one: the empty
  // table's tree has no root and its node segment no slots.
  Dataset ds = SmallDataset();
  ds.feature_tables[1] = FeatureTable(std::vector<FeatureObject>{},
                                      ds.feature_tables[1].universe_size());
  const EngineOptions opts =
      Options(FeatureIndexKind::kSrt, BulkLoadKind::kHilbert);
  EXPECT_EQ(SavedDigest(ds, opts, "empty.stpqx"), kEmptyTableDigest);
  EXPECT_EQ(ExternalDigest(ds, opts, "empty_ext.stpqx"), kEmptyTableDigest);
}

}  // namespace
}  // namespace stpq
