#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "test_util.h"

namespace bcc {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream os(path(name));
    os << content;
  }

  const testutil::TempDir dir_;
};

TEST_F(CsvTest, RoundTripMatrix) {
  std::vector<std::vector<double>> rows = {{1.5, 2.0}, {3.25, -4.0}};
  write_matrix_csv(path("m.csv"), rows, {"a", "b"});
  const CsvTable t = read_csv(path("m.csv"));
  ASSERT_EQ(t.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(t.rows[1][1], -4.0);
}

TEST_F(CsvTest, RoundTripWithoutHeader) {
  std::vector<std::vector<double>> rows = {{1, 2, 3}};
  write_matrix_csv(path("nh.csv"), rows);
  const CsvTable t = read_csv(path("nh.csv"));
  EXPECT_TRUE(t.header.empty());
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0].size(), 3u);
}

TEST_F(CsvTest, HighPrecisionSurvivesRoundTrip) {
  const double v = 0.12345678901234567;
  write_matrix_csv(path("p.csv"), {{v}});
  const CsvTable t = read_csv(path("p.csv"));
  EXPECT_DOUBLE_EQ(t.rows[0][0], v);
}

TEST_F(CsvTest, CommentsAndBlankLinesSkipped) {
  write_file("c.csv", "# comment\n\n1,2\n# another\n3,4\n");
  const CsvTable t = read_csv(path("c.csv"));
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[1][0], 3.0);
}

TEST_F(CsvTest, RaggedRowsRejected) {
  write_file("r.csv", "1,2\n3\n");
  EXPECT_THROW(read_csv(path("r.csv")), std::runtime_error);
}

TEST_F(CsvTest, NonNumericCellRejected) {
  write_file("x.csv", "1,2\n3,oops\n");
  EXPECT_THROW(read_csv(path("x.csv")), std::runtime_error);
}

TEST_F(CsvTest, MissingFileRejected) {
  EXPECT_THROW(read_csv(path("does_not_exist.csv")), std::runtime_error);
}

TEST_F(CsvTest, UnwritablePathRejected) {
  EXPECT_THROW(write_matrix_csv((dir_.path() / "no" / "dir" / "f.csv").string(), {{1}}),
               std::runtime_error);
}

TEST(SplitFields, BasicAndWhitespace) {
  auto f = split_fields(" a , b,c ");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
}

TEST(SplitFields, TrailingSeparatorYieldsEmptyField) {
  auto f = split_fields("a,b,");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[2], "");
}

TEST(SplitFields, AlternateSeparator) {
  auto f = split_fields("a\tb", '\t');
  ASSERT_EQ(f.size(), 2u);
}

}  // namespace
}  // namespace bcc
