// CRC32 (IEEE 802.3, polynomial 0xEDB88320) for on-disk integrity checks.
//
// Every durable artifact — snapshot sections, WAL record frames — carries
// a CRC32 of its payload so recovery can tell a torn or corrupted tail
// from valid data.  The implementation is table-driven slicing-by-8
// (eight bytes per step, byte-at-a-time for the tail): the same values
// as the classic bytewise loop, several times faster on the multi-MB
// snapshot images each checkpoint writes and verifies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xr::checksum {

/// CRC32 of `data`, continuing from `seed` (pass a previous result to
/// checksum discontiguous buffers as one stream).  The empty buffer with
/// the default seed yields 0.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view data,
                                         std::uint32_t seed = 0) {
    return crc32(data.data(), data.size(), seed);
}

}  // namespace xr::checksum
