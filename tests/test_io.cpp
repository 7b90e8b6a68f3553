// I/O round trips and file-format sanity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/engine.hpp"
#include "io/catalog_io.hpp"
#include "io/zeta_io.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace io = galactos::io;
namespace s = galactos::sim;

namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("galactos_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

}  // namespace

TEST(CatalogIo, TextRoundTrip) {
  TempDir dir;
  s::Catalog cat = s::uniform_box(200, s::Aabb::cube(50), 3);
  cat.w[5] = 2.5;
  io::write_catalog_text(cat, dir.file("cat.txt"));
  const s::Catalog back = io::read_catalog_text(dir.file("cat.txt"));
  ASSERT_EQ(back.size(), cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.x[i], cat.x[i]);
    EXPECT_DOUBLE_EQ(back.y[i], cat.y[i]);
    EXPECT_DOUBLE_EQ(back.z[i], cat.z[i]);
    EXPECT_DOUBLE_EQ(back.w[i], cat.w[i]);
  }
}

TEST(CatalogIo, TextAcceptsCommasAndDefaults) {
  TempDir dir;
  {
    std::ofstream f(dir.file("mixed.csv"));
    f << "# header comment\n";
    f << "1.0, 2.0, 3.0\n";        // CSV, no weight
    f << "4 5 6 0.5\n";            // whitespace, weight
    f << "\n";                     // blank line
  }
  const s::Catalog c = io::read_catalog_text(dir.file("mixed.csv"));
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.w[0], 1.0);
  EXPECT_DOUBLE_EQ(c.w[1], 0.5);
  EXPECT_DOUBLE_EQ(c.y[1], 5.0);
}

TEST(CatalogIo, BinaryRoundTrip) {
  TempDir dir;
  const s::Catalog cat = galactos::testing::clumpy_catalog(500, 40.0, 9);
  io::write_catalog_binary(cat, dir.file("cat.bin"));
  const s::Catalog back = io::read_catalog_binary(dir.file("cat.bin"));
  ASSERT_EQ(back.size(), cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(back.x[i], cat.x[i]);
    EXPECT_EQ(back.w[i], cat.w[i]);
  }
}

TEST(CatalogIo, BinaryRejectsGarbage) {
  TempDir dir;
  {
    std::ofstream f(dir.file("junk.bin"), std::ios::binary);
    f << "not a catalog";
  }
  EXPECT_THROW(io::read_catalog_binary(dir.file("junk.bin")),
               std::logic_error);
  EXPECT_THROW(io::read_catalog_text(dir.file("missing.txt")),
               std::logic_error);
}

TEST(CatalogIo, BinaryRejectsHugeHeaderCountBeforeAllocating) {
  // A header claiming 2^40 galaxies in a 48-byte file: the reader must
  // compare the count with the file size first — allocating the claimed
  // 32 TiB (or zero-filling any of it) before noticing is the bug.
  TempDir dir;
  {
    std::ofstream f(dir.file("huge.bin"), std::ios::binary);
    f.write("GLXCAT01", 8);
    const std::uint64_t n = std::uint64_t{1} << 40;
    f.write(reinterpret_cast<const char*>(&n), sizeof n);
    const double payload[4] = {1.0, 2.0, 3.0, 1.0};
    f.write(reinterpret_cast<const char*>(payload), sizeof payload);
  }
  ASSERT_EQ(std::filesystem::file_size(dir.file("huge.bin")), 48u);
  try {
    io::read_catalog_binary(dir.file("huge.bin"));
    FAIL() << "a header count beyond the file size was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(CatalogIo, BinaryRejectsTrailingBytes) {
  TempDir dir;
  const s::Catalog cat = s::uniform_box(3, s::Aabb::cube(10), 5);
  io::write_catalog_binary(cat, dir.file("cat.bin"));
  {
    std::ofstream f(dir.file("cat.bin"), std::ios::binary | std::ios::app);
    f << "junk";
  }
  EXPECT_THROW(io::read_catalog_binary(dir.file("cat.bin")),
               std::logic_error);
}

namespace {

// Writes `body` as a text catalog and expects read_catalog_text to throw
// an error naming "<path>:<line>" and containing `what`.
void expect_text_rejected(const std::string& body, int line,
                          const std::string& what) {
  TempDir dir;
  const std::string path = dir.file("bad.txt");
  {
    std::ofstream f(path);
    f << body;
  }
  try {
    io::read_catalog_text(path);
    FAIL() << "accepted: " << body;
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":" + std::to_string(line) + ":"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

}  // namespace

TEST(CatalogIo, TextRejectsUnparseableRow) {
  expect_text_rejected("# x y z\n1 2 3\n4 five 6\n", 3, "cannot parse");
}

TEST(CatalogIo, TextRejectsShortRow) {
  expect_text_rejected("1 2 3\n4 5\n", 2, "expected x y z [w]");
}

TEST(CatalogIo, TextRejectsExtraTokens) {
  expect_text_rejected("1 2 3 1\n4 5 6 1 7\n", 2, "extra token");
}

TEST(CatalogIo, TextRejectsNonFiniteValues) {
  expect_text_rejected("1 2 3\nnan 5 6\n", 2, "non-finite");
  expect_text_rejected("1 inf 3\n", 1, "non-finite");
  expect_text_rejected("1 2 1e400\n", 1, "non-finite");
  expect_text_rejected("1, 2, 3, nan\n", 1, "non-finite");
}

TEST(CatalogIo, TextRejectsNegativeWeight) {
  expect_text_rejected("1 2 3 0.5\n\n4 5 6 -0.25\n", 3, "negative weight");
}

TEST(ZetaIo, BinaryRoundTripPreservesEverything) {
  TempDir dir;
  const s::Catalog cat = s::uniform_box(300, s::Aabb::cube(40), 11);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 20.0, 3);
  cfg.lmax = 3;
  const c::ZetaResult res = c::Engine(cfg).run(cat);
  io::write_zeta_binary(res, dir.file("z.bin"));
  const c::ZetaResult back = io::read_zeta_binary(dir.file("z.bin"));
  galactos::testing::expect_results_match(res, back, 0.0, 1e-300);
  EXPECT_EQ(back.bins.rmin(), res.bins.rmin());
  EXPECT_EQ(back.bins.count(), res.bins.count());
}

TEST(ZetaIo, CsvFilesHaveExpectedShape) {
  TempDir dir;
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(30), 13);
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 15.0, 2);
  cfg.lmax = 2;
  const c::ZetaResult res = c::Engine(cfg).run(cat);

  io::write_zeta_csv(res, dir.file("zeta.csv"));
  io::write_isotropic_map_csv(res, 0, dir.file("map.csv"));
  io::write_xi_csv(res, dir.file("xi.csv"));

  auto count_lines = [](const std::string& p) {
    std::ifstream f(p);
    std::string line;
    int n = 0;
    while (std::getline(f, line)) ++n;
    return n;
  };
  // zeta.csv: header + binpairs(3) * sum_{l,lp} (min+1)
  int nllm = 0;
  for (int l = 0; l <= 2; ++l)
    for (int lp = 0; lp <= 2; ++lp) nllm += std::min(l, lp) + 1;
  EXPECT_EQ(count_lines(dir.file("zeta.csv")), 1 + 3 * nllm);
  // map.csv: header + nbins^2
  EXPECT_EQ(count_lines(dir.file("map.csv")), 1 + 4);
  // xi.csv: header + nbins
  EXPECT_EQ(count_lines(dir.file("xi.csv")), 1 + 2);
}
