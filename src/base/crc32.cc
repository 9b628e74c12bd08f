#include "src/base/crc32.h"

#include <array>

namespace para {

namespace {

// Slice-by-8 tables, generated at compile time from the reflected
// polynomial. kTables[0] is the classic bytewise table; kTables[k][b] is the
// CRC of byte b followed by k zero bytes, so one step folds eight input
// bytes with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeTables();

// Little-endian load independent of host byte order (compiles to one load
// on little-endian targets).
inline uint32_t LoadLE32(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ LoadLE32(p);
    uint32_t hi = LoadLE32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^
          kTables[2][(hi >> 8) & 0xFF] ^ kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace para
