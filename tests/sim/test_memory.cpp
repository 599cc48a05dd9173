#include "sim/memory.h"

#include <gtest/gtest.h>

namespace papirepro::sim {
namespace {

TEST(Memory, ReadWriteRoundTrip) {
  Memory m;
  m.write_i64(0x1000, 42);
  EXPECT_EQ(m.read_i64(0x1000), 42);
  m.write_f64(0x2000, 3.25);
  EXPECT_DOUBLE_EQ(m.read_f64(0x2000), 3.25);
}

TEST(Memory, UntouchedReadsZero) {
  Memory m;
  EXPECT_EQ(m.read_i64(0xdead000), 0);
  EXPECT_DOUBLE_EQ(m.read_f64(0xbeef000), 0.0);
  // Reading does not allocate pages.
  EXPECT_EQ(m.pages_touched(), 0u);
}

TEST(Memory, PagesTouchedCountsDistinctPages) {
  Memory m;
  m.write_i64(0, 1);
  m.write_i64(8, 2);  // same page
  EXPECT_EQ(m.pages_touched(), 1u);
  m.write_i64(kPageSize, 3);  // next page
  EXPECT_EQ(m.pages_touched(), 2u);
  m.write_i64(10 * kPageSize, 4);
  EXPECT_EQ(m.pages_touched(), 3u);
  EXPECT_EQ(m.bytes_touched(), 3 * kPageSize);
}

TEST(Memory, SparseFarApartAddresses) {
  Memory m;
  m.write_i64(0x10, 7);
  m.write_i64(0x7fff'ffff'0000ULL, 9);
  EXPECT_EQ(m.read_i64(0x10), 7);
  EXPECT_EQ(m.read_i64(0x7fff'ffff'0000ULL), 9);
}

TEST(Memory, OverwriteSameWord) {
  Memory m;
  m.write_i64(64, 1);
  m.write_i64(64, -5);
  EXPECT_EQ(m.read_i64(64), -5);
  EXPECT_EQ(m.pages_touched(), 1u);
}

TEST(Memory, UnwrittenPageReadsZeroAfterAWrittenOne) {
  Memory m;
  m.write_i64(0x1000, 11);
  EXPECT_EQ(m.read_i64(0x1008), 0);  // the written page, another word
  EXPECT_EQ(m.read_i64(0x5000), 0);  // a page never written
  EXPECT_EQ(m.pages_touched(), 1u);
  EXPECT_EQ(m.read_i64(0x1000), 11);
  m.write_i64(0x5000, 5);
  EXPECT_EQ(m.pages_touched(), 2u);
  EXPECT_EQ(m.read_i64(0x5000), 5);
  EXPECT_EQ(m.read_i64(0x6000), 0);
  EXPECT_EQ(m.pages_touched(), 2u);
}

TEST(Memory, AlternatingPagesReadBackWhatWasWritten) {
  Memory m;
  const std::uint64_t a = 3 * kPageSize, b = 900 * kPageSize;
  for (std::int64_t i = 0; i < 512; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(8 * i);
    m.write_i64(a + off, i);
    m.write_i64(b + off, -i);
    EXPECT_EQ(m.read_i64(a + off), i);
    EXPECT_EQ(m.read_i64(b + off), -i);
  }
  for (std::int64_t i = 0; i < 512; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(8 * i);
    EXPECT_EQ(m.read_i64(b + off), -i);
    EXPECT_EQ(m.read_i64(a + off), i);
  }
  EXPECT_EQ(m.pages_touched(), 2u);
}

TEST(Memory, PageOfMath) {
  EXPECT_EQ(Memory::page_of(0), 0u);
  EXPECT_EQ(Memory::page_of(kPageSize - 1), 0u);
  EXPECT_EQ(Memory::page_of(kPageSize), 1u);
}

}  // namespace
}  // namespace papirepro::sim
