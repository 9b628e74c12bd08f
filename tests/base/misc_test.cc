// CRC-32, PRNG, hexdump, virtual clock, and logger tests.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/hexdump.h"
#include "src/base/log.h"
#include "src/base/random.h"
#include "src/base/vclock.h"

namespace para {
namespace {

std::span<const uint8_t> Bytes(const char* s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789" under CRC-32/IEEE.
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(Bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

// The textbook bytewise table loop, kept here as the oracle for the
// slice-by-8 implementation (whose output component images persist).
uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  // Every length 0..2048 at every start offset 0..7 (so the 8-byte loads
  // see every alignment and every tail length), over seeded random bytes
  // and over all-ones bytes.
  Random rng(0xC3C32);
  std::vector<uint8_t> random_bytes(2048 + 8);
  for (uint8_t& b : random_bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> ones(2048 + 8, 0xFF);
  for (const auto* buffer : {&random_bytes, &ones}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 2048; ++len) {
        std::span<const uint8_t> data(buffer->data() + offset, len);
        ASSERT_EQ(Crc32(data), ReferenceCrc32(data)) << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, EverySplitPointMatchesOneShot) {
  Random rng(77);
  std::vector<uint8_t> data(300);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint32_t one_shot = Crc32(data);
  const std::span<const uint8_t> all(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(Crc32Init(), all.first(split));
    crc = Crc32Update(crc, all.subspan(split));
    ASSERT_EQ(Crc32Final(crc), one_shot) << "split " << split;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, Bytes("1234"));
  crc = Crc32Update(crc, Bytes("56789"));
  EXPECT_EQ(Crc32Final(crc), Crc32(Bytes("123456789")));
}

TEST(Crc32Test, DetectsCorruption) {
  std::vector<uint8_t> data(64, 0xAB);
  uint32_t good = Crc32(data);
  data[17] ^= 1;
  EXPECT_NE(Crc32(data), good);
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, NextBelowInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BoolProbabilityRoughlyHolds) {
  Random rng(11);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    trues += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_GT(trues, 2000);
  EXPECT_LT(trues, 3000);
}

TEST(HexTest, HexEncode) {
  uint8_t data[] = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(HexEncode(data), "deadbeef");
  EXPECT_EQ(HexEncode(std::span<const uint8_t>{}), "");
}

TEST(HexTest, HexdumpFormat) {
  uint8_t data[20];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>('A' + i);
  }
  std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);  // second line
  EXPECT_NE(dump.find("|ABCDEFGHIJKLMNOP|"), std::string::npos);
  EXPECT_NE(dump.find("41 "), std::string::npos);
}

TEST(HexTest, HexdumpNonPrintable) {
  uint8_t data[] = {0x00, 0x1F, 0x7F};
  std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("|...|"), std::string::npos);
}

TEST(VClockTest, AdvanceAndReset) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(50);  // never goes backwards
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.now(), 250u);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(LogTest, SinkCapturesAtLevel) {
  std::vector<std::string> lines;
  Logger::Get().set_sink([&lines](LogLevel, std::string_view msg) {
    lines.emplace_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kInfo);
  PARA_DEBUG("hidden %d", 1);
  PARA_INFO("visible %d", 2);
  PARA_ERROR("also visible");
  Logger::Get().set_sink(nullptr);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("visible 2"), std::string::npos);
  EXPECT_NE(lines[0].find("[INFO]"), std::string::npos);
  EXPECT_NE(lines[1].find("[ERROR]"), std::string::npos);
  // Lines carry file:line provenance.
  EXPECT_NE(lines[0].find("misc_test.cc"), std::string::npos);
}

TEST(LogTest, LevelNames) {
  EXPECT_EQ(LogLevelName(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(LogLevelName(LogLevel::kFatal), "FATAL");
}

}  // namespace
}  // namespace para
