// Tests for io/: CSV and binary dataset round trips plus error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/engine.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "io/index_format.h"
#include "util/rng.h"

namespace stpq {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, ObjectsCsvRoundTrip) {
  std::vector<DataObject> objects = {
      {0, {0.25, 0.75}, "Grand Hotel"},
      {1, {0.5, 0.5}, "B&B"},
      {2, {1.0, 0.0}, ""},
  };
  ASSERT_TRUE(WriteObjectsCsv(Path("o.csv"), objects).ok());
  Result<std::vector<DataObject>> back = ReadObjectsCsv(Path("o.csv"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_EQ(back.value()[0].pos, (Point{0.25, 0.75}));
  EXPECT_EQ(back.value()[0].name, "Grand Hotel");
  EXPECT_EQ(back.value()[2].name, "");
}

TEST_F(IoTest, ObjectsCsvSanitizesCommas) {
  std::vector<DataObject> objects = {{0, {0, 0}, "Hotel, with commas"}};
  ASSERT_TRUE(WriteObjectsCsv(Path("o.csv"), objects).ok());
  Result<std::vector<DataObject>> back = ReadObjectsCsv(Path("o.csv"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[0].name, "Hotel  with commas");
}

TEST_F(IoTest, ObjectsCsvErrors) {
  EXPECT_FALSE(ReadObjectsCsv(Path("missing.csv")).ok());
  {
    std::ofstream out(Path("bad.csv"));
    out << "id,x,y,name\n1,notanumber,2,x\n";
  }
  Result<std::vector<DataObject>> r = ReadObjectsCsv(Path("bad.csv"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(Path("short.csv"));
    out << "1,2\n";
  }
  EXPECT_FALSE(ReadObjectsCsv(Path("short.csv")).ok());
}

TEST_F(IoTest, FeaturesCsvRoundTrip) {
  Vocabulary vocab;
  TermId pizza = vocab.Intern("pizza");
  TermId sushi = vocab.Intern("sushi");
  std::vector<FeatureObject> features;
  features.push_back(
      {0, {0.1, 0.2}, 0.9, KeywordSet(2, {pizza, sushi}), "Both"});
  features.push_back({1, {0.3, 0.4}, 0.5, KeywordSet(2, {sushi}), "Sushi"});
  FeatureTable table(std::move(features), 2);
  ASSERT_TRUE(WriteFeaturesCsv(Path("f.csv"), table, vocab).ok());

  Vocabulary vocab2;
  Result<FeatureTable> back = ReadFeaturesCsv(Path("f.csv"), &vocab2);
  ASSERT_TRUE(back.ok());
  const FeatureTable& t = back.value();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.Get(0).score, 0.9);
  EXPECT_EQ(t.Get(0).keywords.Count(), 2u);
  EXPECT_EQ(t.Get(1).name, "Sushi");
  EXPECT_TRUE(vocab2.Lookup("pizza").ok());
}

TEST_F(IoTest, FeaturesCsvUniverseOverride) {
  Vocabulary vocab;
  std::vector<FeatureObject> features;
  features.push_back(
      {0, {0, 0}, 0.5, KeywordSet(1, {vocab.Intern("a")}), ""});
  FeatureTable table(std::move(features), 1);
  ASSERT_TRUE(WriteFeaturesCsv(Path("f.csv"), table, vocab).ok());
  Vocabulary vocab2;
  Result<FeatureTable> wide = ReadFeaturesCsv(Path("f.csv"), &vocab2, 64);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value().universe_size(), 64u);
  // Universe smaller than the keyword count is rejected.
  Vocabulary vocab3;
  vocab3.Intern("x");
  vocab3.Intern("y");
  std::ofstream(Path("two.csv")) << "id,x,y,score,keywords\n"
                                 << "0,0,0,0.5,x|y|z\n";
  Result<FeatureTable> narrow = ReadFeaturesCsv(Path("two.csv"), &vocab3, 2);
  EXPECT_FALSE(narrow.ok());
}

TEST_F(IoTest, FeaturesCsvScoreRangeChecked) {
  std::ofstream(Path("f.csv")) << "id,x,y,score,keywords\n0,0,0,1.5,a\n";
  Vocabulary vocab;
  Result<FeatureTable> r = ReadFeaturesCsv(Path("f.csv"), &vocab);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(IoTest, BinaryRoundTripSynthetic) {
  SyntheticConfig cfg;
  cfg.num_objects = 200;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 20;
  Dataset ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("d.stpq"), ds).ok());
  Result<Dataset> back = ReadDatasetBinary(Path("d.stpq"));
  ASSERT_TRUE(back.ok());
  const Dataset& b = back.value();
  ASSERT_EQ(b.objects.size(), ds.objects.size());
  ASSERT_EQ(b.feature_tables.size(), 2u);
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    EXPECT_EQ(b.objects[i].pos, ds.objects[i].pos);
  }
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(b.feature_tables[s].size(), ds.feature_tables[s].size());
    EXPECT_EQ(b.vocabularies[s].size(), ds.vocabularies[s].size());
    for (size_t i = 0; i < ds.feature_tables[s].size(); ++i) {
      const FeatureObject& x = ds.feature_tables[s].Get(i);
      const FeatureObject& y = b.feature_tables[s].Get(i);
      EXPECT_EQ(x.pos, y.pos);
      EXPECT_EQ(x.score, y.score);
      EXPECT_EQ(x.keywords, y.keywords);
    }
  }
}

TEST_F(IoTest, BinaryRoundTripRealLikePreservesNames) {
  RealLikeConfig cfg;
  cfg.scale = 0.01;
  Dataset ds = GenerateRealLike(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("r.stpq"), ds).ok());
  Result<Dataset> back = ReadDatasetBinary(Path("r.stpq"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().objects[0].name, ds.objects[0].name);
  EXPECT_EQ(back.value().feature_tables[0].Get(0).name,
            ds.feature_tables[0].Get(0).name);
  EXPECT_EQ(back.value().vocabularies[0].Term(0), ds.vocabularies[0].Term(0));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  std::ofstream(Path("junk.stpq"), std::ios::binary) << "not an stpq file";
  Result<Dataset> r = ReadDatasetBinary(Path("junk.stpq"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  SyntheticConfig cfg;
  cfg.num_objects = 50;
  cfg.num_features_per_set = 50;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 16;
  Dataset ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("full.stpq"), ds).ok());
  // Truncate the file in the middle.
  auto size = std::filesystem::file_size(Path("full.stpq"));
  std::filesystem::resize_file(Path("full.stpq"), size / 2);
  Result<Dataset> r = ReadDatasetBinary(Path("full.stpq"));
  EXPECT_FALSE(r.ok());
}

TEST_F(IoTest, BinaryRejectsMissingVocabulary) {
  Dataset ds;
  ds.objects.push_back({0, {0, 0}, ""});
  ds.feature_tables.emplace_back(std::vector<FeatureObject>{}, 4);
  // No vocabulary for the table.
  Status s = WriteDatasetBinary(Path("x.stpq"), ds);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// .stpqx index files: build -> Save -> Open round trips and typed corruption
// errors (DESIGN.md §16).  The round-trip contract is strict: a reopened
// engine must return identical result entries AND identical per-query
// page-read counters, because the restored trees are verbatim images of the
// built ones.
// ---------------------------------------------------------------------------

class IndexFileTest : public IoTest {
 protected:
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

  static Engine BuildEngine(const Dataset& ds, FeatureIndexKind kind) {
    EngineOptions opts;
    opts.index_kind = kind;
    opts.storage.page_size = 256;  // small pages -> trees with real depth
    return Engine::Build(ds.objects,
                         std::vector<FeatureTable>(ds.feature_tables), opts)
        .TakeValue();
  }

  static std::vector<Query> SomeQueries(uint32_t vocab, uint32_t sets) {
    Rng rng(123);
    std::vector<Query> queries;
    for (int i = 0; i < 12; ++i) {
      Query q;
      q.k = 5;
      q.radius = 0.05;
      q.lambda = 0.5;
      for (uint32_t s = 0; s < sets; ++s) {
        KeywordSet kw(vocab);
        kw.Insert(static_cast<TermId>(rng.UniformInt(0, vocab - 1)));
        kw.Insert(static_cast<TermId>(rng.UniformInt(0, vocab - 1)));
        q.keywords.push_back(std::move(kw));
      }
      q.variant = (i % 4 == 1)   ? ScoreVariant::kInfluence
                  : (i % 4 == 3) ? ScoreVariant::kNearestNeighbor
                                 : ScoreVariant::kRange;
      queries.push_back(std::move(q));
    }
    return queries;
  }

  /// Saves a small valid SRT index to `name` and returns its path.
  std::string SaveSmallIndex(const char* name) {
    Dataset ds = SmallDataset();
    Engine engine = BuildEngine(ds, FeatureIndexKind::kSrt);
    std::string path = Path(name);
    EXPECT_TRUE(engine.Save(path).ok());
    return path;
  }

  void RoundTrip(FeatureIndexKind kind) {
    Dataset ds = SmallDataset();
    Engine built = BuildEngine(ds, kind);
    std::string path = Path("rt.stpqx");
    ASSERT_TRUE(built.Save(path).ok());

    Result<Engine> reopened = Engine::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value().page_store().backend(),
              StorageBackend::kFile);
    EXPECT_EQ(reopened.value().options().index_kind, kind);

    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      for (const Query& q : SomeQueries(48, 2)) {
        Result<QueryResult> a = built.Execute(q, algo);
        Result<QueryResult> b = reopened.value().Execute(q, algo);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a.value().entries, b.value().entries);
        // Golden I/O contract: identical page-read accounting per query.
        EXPECT_EQ(a.value().stats.object_index_reads,
                  b.value().stats.object_index_reads);
        EXPECT_EQ(a.value().stats.feature_index_reads,
                  b.value().stats.feature_index_reads);
        EXPECT_EQ(a.value().stats.buffer_hits, b.value().stats.buffer_hits);
      }
    }
    // The reopened engine really read pages from the file.
    EXPECT_GT(reopened.value().page_store().stats().fetches, 0u);
  }
};

TEST_F(IndexFileTest, RoundTripSrt) { RoundTrip(FeatureIndexKind::kSrt); }

TEST_F(IndexFileTest, RoundTripIr2) { RoundTrip(FeatureIndexKind::kIr2); }

TEST_F(IndexFileTest, VocabulariesRoundTrip) {
  Dataset ds = SmallDataset();
  Engine engine = BuildEngine(ds, FeatureIndexKind::kSrt);
  std::string path = Path("vocab.stpqx");
  ASSERT_TRUE(engine.Save(path, ds.vocabularies).ok());
  Result<std::vector<Vocabulary>> back = ReadIndexVocabularies(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), ds.vocabularies.size());
  for (size_t i = 0; i < back.value().size(); ++i) {
    ASSERT_EQ(back.value()[i].size(), ds.vocabularies[i].size());
    for (TermId t = 0; t < ds.vocabularies[i].size(); ++t) {
      EXPECT_EQ(back.value()[i].Term(t), ds.vocabularies[i].Term(t));
    }
  }
}

TEST_F(IndexFileTest, InfoReportsSuperblockAndCatalog) {
  std::string path = SaveSmallIndex("info.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().params.index_kind, FeatureIndexKind::kSrt);
  EXPECT_EQ(info.value().table_count, 2u);
  // 3 fixed segments + 4 per table (vocab, table, tree meta, tree nodes).
  EXPECT_EQ(info.value().segments.size(), 3u + 4u * 2u);
}

TEST_F(IndexFileTest, RejectsBadMagic) {
  std::string path = Path("junk.stpqx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a stpq index file, padded well past the "
           "superblock size so only the magic check can reject it";
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexFileTest, RejectsVersionMismatch) {
  std::string path = SaveSmallIndex("ver.stpqx");
  {
    // The version is the u32 at byte offset 4, right after the magic.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    char future = 99;
    f.write(&future, 1);
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST_F(IndexFileTest, RejectsTruncatedSuperblock) {
  std::string path = SaveSmallIndex("shortsb.stpqx");
  std::filesystem::resize_file(path, 20);
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IndexFileTest, RejectsTruncatedSegments) {
  std::string path = SaveSmallIndex("shortseg.stpqx");
  uint64_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 2 / 3);
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IndexFileTest, RejectsChecksumDamage) {
  std::string path = SaveSmallIndex("flip.stpqx");
  uint64_t size = std::filesystem::file_size(path);
  {
    // Flip one byte near the end of the file: inside the last node
    // segment's payload, far from the header, so only the segment
    // checksum can catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 100));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5c);
    f.seekp(static_cast<std::streamoff>(size - 100));
    f.write(&b, 1);
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
}

// Entry ids are not covered by any checksum the reader can trust (the
// catalog that holds the node-segment checksum is itself unchecksummed), so
// Open must check each id against what it names before a query follows it.
// The file below carries a recomputed checksum over the damaged slot.
class EntryIdTest : public IndexFileTest {
 protected:
  /// Saves the small SRT index, rewrites every entry id of object-tree node
  /// `node` (root, or the first leaf) to `id`, and re-checksums the node
  /// segment in its catalog row, so only the id check can reject the file.
  std::string SaveWithEntryIds(const char* name, bool leaf, uint32_t id) {
    Dataset ds = SmallDataset();
    Engine engine = BuildEngine(ds, FeatureIndexKind::kSrt);
    const RTree<2>& tree = engine.object_index().tree();
    NodeId node = tree.root_id();
    while (leaf && !tree.PeekView(node).IsLeaf()) {
      node = tree.PeekView(node).id(0);
    }
    EXPECT_EQ(tree.PeekView(node).IsLeaf(), leaf);
    const uint32_t entry_bytes = tree.codec().entry_bytes();
    std::string path = Path(name);
    EXPECT_TRUE(engine.Save(path).ok());

    Result<IndexFileInfo> info = ReadIndexFileInfo(path);
    EXPECT_TRUE(info.ok());
    size_t row = 0;
    while (info.value().segments[row].name !=
           index_format::SegmentName(index_format::kSegObjectTreeNodes)) {
      ++row;
    }
    const IndexSegmentInfo& seg = info.value().segments[row];
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    std::string nodes(seg.bytes, '\0');
    f.seekg(static_cast<std::streamoff>(seg.offset));
    f.read(nodes.data(), static_cast<std::streamsize>(nodes.size()));
    char* slot = nodes.data() + size_t{node} * seg.slot_bytes;
    uint32_t count = 0;
    std::memcpy(&count, slot + 4, sizeof(count));
    EXPECT_GT(count, 0u);
    for (uint32_t i = 0; i < count; ++i) {
      std::memcpy(slot + 8 + i * entry_bytes + sizeof(Rect<2>), &id,
                  sizeof(id));
    }
    f.seekp(static_cast<std::streamoff>(seg.offset));
    f.write(nodes.data(), static_cast<std::streamsize>(nodes.size()));
    const uint64_t checksum =
        index_format::Fnv1a64(nodes.data(), nodes.size());
    f.seekp(static_cast<std::streamoff>(
        index_format::kSuperblockBytes +
        row * index_format::kCatalogEntryBytes +
        offsetof(index_format::CatalogEntry, checksum)));
    f.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    return path;
  }

  static void ExpectCorruption(const std::string& path) {
    Result<LoadedIndex> r = LoadIndexFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << r.status().ToString();
    // The id check rejected it, not the (recomputed) checksum.
    EXPECT_NE(r.status().message().find("past the"), std::string::npos)
        << r.status().ToString();
    Result<Engine> e = Engine::Open(path);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
  }
};

TEST_F(EntryIdTest, RejectsChildIdPastTheTree) {
  ExpectCorruption(SaveWithEntryIds("child.stpqx", /*leaf=*/false,
                                    0x7ffffff0u));
}

TEST_F(EntryIdTest, RejectsRecordIdPastTheObjects) {
  // 400 objects: id 400 is the first one past the end.
  ExpectCorruption(SaveWithEntryIds("record.stpqx", /*leaf=*/true, 400));
}

// A tree has no free list: the metadata's free-node count field is always
// written 0, and Open rejects any other value.  The damaged segment gets a
// recomputed checksum, so only the count check can reject it.
TEST_F(IndexFileTest, RejectsNonZeroFreeNodeCount) {
  std::string path = SaveSmallIndex("free.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  size_t row = 0;
  while (info.value().segments[row].name !=
         index_format::SegmentName(index_format::kSegObjectTreeMeta)) {
    ++row;
  }
  const IndexSegmentInfo& seg = info.value().segments[row];
  // root, height, size (u64), node count, fan-out, aug bits, aug words,
  // then the u32 free-node count.
  constexpr size_t kFreeCountOffset = 4 + 4 + 8 + 4 + 4 + 4 + 4;
  ASSERT_EQ(seg.bytes, kFreeCountOffset + 4);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  std::string meta(seg.bytes, '\0');
  f.seekg(static_cast<std::streamoff>(seg.offset));
  f.read(meta.data(), static_cast<std::streamsize>(meta.size()));
  uint32_t free_count = 0;
  std::memcpy(&free_count, meta.data() + kFreeCountOffset, 4);
  ASSERT_EQ(free_count, 0u);
  free_count = 1;
  std::memcpy(meta.data() + kFreeCountOffset, &free_count, 4);
  f.seekp(static_cast<std::streamoff>(seg.offset));
  f.write(meta.data(), static_cast<std::streamsize>(meta.size()));
  const uint64_t checksum = index_format::Fnv1a64(meta.data(), meta.size());
  f.seekp(static_cast<std::streamoff>(
      index_format::kSuperblockBytes + row * index_format::kCatalogEntryBytes +
      offsetof(index_format::CatalogEntry, checksum)));
  f.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  f.close();

  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("free nodes"), std::string::npos)
      << r.status().ToString();
}

// Page-read accounting on an opened file: every page read a query reports
// is one store fetch, and with warm shared pools one pool miss, whatever
// the index kind, the pool capacity and the cold-session setting.
TEST_F(IndexFileTest, PageReadsEqualStoreFetchesEqualPoolMisses) {
  SyntheticConfig cfg;
  cfg.seed = 11;
  cfg.num_objects = 3000;
  cfg.num_features_per_set = 3000;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 48;
  cfg.num_clusters = 64;
  const Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 50;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].variant = static_cast<ScoreVariant>(i % 3);
  }
  for (FeatureIndexKind kind : {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    const std::string path = Path("acct.stpqx");
    ASSERT_TRUE(BuildEngine(ds, kind).Save(path).ok());
    for (uint64_t capacity : {uint64_t{0}, uint64_t{64}}) {
      for (bool cold : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << (kind == FeatureIndexKind::kSrt ? "SRT" : "IR2")
                     << " capacity=" << capacity << " cold=" << cold);
        EngineOptions opts;
        opts.storage.pool_capacity = capacity;
        opts.cold_cache_per_query = cold;
        Result<Engine> engine = Engine::Open(path, opts);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        uint64_t reads = 0;
        for (const Query& q : queries) {
          Result<QueryResult> r = engine.value().Execute(q, Algorithm::kStps);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          reads += r.value().stats.TotalReads();
        }
        EXPECT_GT(reads, 0u);
        EXPECT_EQ(reads, engine.value().page_store().stats().fetches);
        if (!cold) {
          EXPECT_EQ(reads, engine.value().object_pool().stats().reads +
                               engine.value().feature_pool().stats().reads);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the index reader's pread seam: every byte Open
// verifies is read there (the trees then read the mapping of those bytes),
// so these faults reach an opened engine.  The seam functions are stateful
// file-statics; FaultTest uninstalls the seam after each case.
// ---------------------------------------------------------------------------

int g_pread_calls = 0;
uint64_t g_cut_offset = 0;

/// Fails with EINTR on every odd call; the retry loop must converge.
ssize_t PreadEintrEveryOther(int fd, void* buf, size_t count, off_t offset) {
  if (++g_pread_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::pread(fd, buf, count, offset);
}

/// Hard I/O error: pread fails with EIO immediately.
ssize_t PreadEio(int, void*, size_t, off_t) {
  errno = EIO;
  return -1;
}

/// The file ends at g_cut_offset for the reader: a read crossing it gets
/// the bytes before it, then 0 (EOF), as if the file were cut there.
ssize_t PreadCut(int fd, void* buf, size_t count, off_t offset) {
  const uint64_t at = static_cast<uint64_t>(offset);
  if (at >= g_cut_offset) return 0;
  const uint64_t left = g_cut_offset - at;
  return ::pread(fd, buf, count < left ? count : static_cast<size_t>(left),
                 offset);
}

class FaultTest : public IndexFileTest {
 protected:
  void TearDown() override {
    SetIndexPreadFnForTest(nullptr);
    IndexFileTest::TearDown();
  }
};

TEST_F(FaultTest, EintrIsRetriedAndAnswersAreUnchanged) {
  Dataset ds = SmallDataset();
  Engine built = BuildEngine(ds, FeatureIndexKind::kSrt);
  std::string path = Path("eintr.stpqx");
  ASSERT_TRUE(built.Save(path).ok());

  g_pread_calls = 0;
  SetIndexPreadFnForTest(&PreadEintrEveryOther);
  Result<Engine> opened = Engine::Open(path);
  SetIndexPreadFnForTest(nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_GT(g_pread_calls, 1) << "the EINTR attempts were not retried";

  for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
    for (const Query& q : SomeQueries(48, 2)) {
      Result<QueryResult> a = built.Execute(q, algo);
      Result<QueryResult> b = opened.value().Execute(q, algo);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().entries, b.value().entries);
      EXPECT_EQ(a.value().stats.object_index_reads,
                b.value().stats.object_index_reads);
      EXPECT_EQ(a.value().stats.feature_index_reads,
                b.value().stats.feature_index_reads);
    }
  }
  EXPECT_EQ(opened.value().page_store().stats().io_errors, 0u);
}

TEST_F(FaultTest, PreadFailureIsTypedIoError) {
  std::string path = SaveSmallIndex("eio.stpqx");
  SetIndexPreadFnForTest(&PreadEio);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kIoError);
}

TEST_F(FaultTest, ZeroByteReadMidSegmentIsTypedIoError) {
  std::string path = SaveSmallIndex("cut.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const IndexSegmentInfo* nodes = nullptr;
  for (const IndexSegmentInfo& seg : info.value().segments) {
    if (seg.name == index_format::SegmentName(
                        index_format::kSegObjectTreeNodes)) {
      nodes = &seg;
    }
  }
  ASSERT_NE(nodes, nullptr);
  ASSERT_GT(nodes->bytes, 1u);
  g_cut_offset = nodes->offset + nodes->bytes / 2;
  SetIndexPreadFnForTest(&PreadCut);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kIoError);
}

TEST_F(IndexFileTest, RejectsMissingFile) {
  Result<LoadedIndex> r = LoadIndexFile(Path("nope.stpqx"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace stpq
