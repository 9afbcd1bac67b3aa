#include "sim/metrics.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

TEST(MessageMetrics, RecordsPerCategory) {
  MessageMetrics m;
  m.record("a", 10);
  m.record("a", 5);
  m.record("b", 1);
  EXPECT_EQ(m.messages("a"), 2u);
  EXPECT_EQ(m.bytes("a"), 15u);
  EXPECT_EQ(m.messages("b"), 1u);
  EXPECT_EQ(m.total_messages(), 3u);
  EXPECT_EQ(m.total_bytes(), 16u);
}

TEST(MessageMetrics, UnknownCategoryIsZero) {
  MessageMetrics m;
  EXPECT_EQ(m.messages("nope"), 0u);
  EXPECT_EQ(m.bytes("nope"), 0u);
}

TEST(MessageMetrics, ResetClears) {
  MessageMetrics m;
  m.record("a", 10);
  m.reset();
  EXPECT_EQ(m.total_messages(), 0u);
  EXPECT_EQ(m.total_bytes(), 0u);
}

}  // namespace
}  // namespace bcc
