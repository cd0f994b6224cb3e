// Wire codec for transport frames: the length-prefixed, checksummed
// binary format the multi-process gradient transport speaks.
//
// Layout (all integers little-endian, encoded with explicit byte shifts
// so the codec is byte-order independent without touching htons/ntohs):
//
//   u32  body_length          (length prefix; bytes after this field)
//   u8   magic[2] = "RF"
//   u8   version  = 1
//   u8   type                 (FrameType)
//   u32  agent
//   u64  round                (delivery round)
//   u64  emitted              (round the payload was computed in)
//   u32  hops                 (topology edges traversed so far)
//   u32  count                (number of payload doubles)
//   f64  payload[count]       (IEEE-754 bits, little-endian)
//   u32  crc                  (CRC-32 of the body bytes before this field)
//
// Every field is validated on decode; any corruption — bad magic, bad
// version, truncated body, trailing bytes, payload overflow, checksum
// mismatch — raises PreconditionError, never undefined behaviour.  The
// fuzz corpus in tests/test_fuzz_io.cpp drives mutated bytes through
// decode_frame under asan/ubsan to hold that contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace redopt::util {

/// Protocol frame kinds.  kEstimate flows root -> leaves, kGradient flows
/// leaves -> root, kRoundDone / kShutdown are socket-backend flow control,
/// kTelemetry carries a blob-packed telemetry snapshot (request downward
/// from the coordinator, per-agent snapshot blobs upward).
enum class FrameType : std::uint8_t {
  kEstimate = 1,
  kGradient = 2,
  kRoundDone = 3,
  kShutdown = 4,
  kTelemetry = 5,
};

/// Sender id used on coordinator-originated frames (estimate, shutdown).
inline constexpr std::uint32_t kCoordinatorAgent = 0xffffffffu;

/// One transport frame.
struct Frame {
  FrameType type = FrameType::kGradient;
  std::uint32_t agent = 0;    ///< emitting agent, or kCoordinatorAgent
  std::uint64_t round = 0;    ///< delivery round
  std::uint64_t emitted = 0;  ///< round the payload was computed in
  std::uint32_t hops = 0;     ///< topology edges traversed so far
  std::vector<double> payload;
};

/// CRC-32 (IEEE 802.3, reflected) of @p size bytes at @p data.
std::uint32_t crc32(const unsigned char* data, std::size_t size);

/// Serializes @p frame, length prefix included.  The result is exactly
/// frame_wire_size(frame) bytes.
std::string encode_frame(const Frame& frame);

/// Parses one frame from @p bytes, which must hold exactly one
/// length-prefixed frame (prefix included, no trailing bytes).  Throws
/// PreconditionError on any malformation.
Frame decode_frame(const std::string& bytes);

/// Parses a frame body (the bytes after the length prefix).
Frame decode_frame_body(const unsigned char* body, std::size_t size);

/// Bytes @p frame occupies on the wire, length prefix included.
std::size_t frame_wire_size(const Frame& frame);

/// Wire size of a frame carrying @p payload_doubles doubles.
std::size_t frame_wire_size_for(std::size_t payload_doubles);

/// Packs raw bytes into a frame payload: entry 0 carries the byte count,
/// the remaining entries carry the bytes verbatim, 8 per double (the
/// doubles are never used arithmetically — memcpy in, memcpy out, so the
/// bits survive the codec exactly).  Used by kTelemetry frames.
std::vector<double> pack_blob(const std::string& bytes);

/// Inverse of pack_blob.  Throws PreconditionError when the declared
/// byte count is absent, non-integral, out of range, or leaves more than
/// seven bytes of padding (a well-formed packing is minimal).
std::string unpack_blob(const std::vector<double>& payload);

/// Validation of unpack_blob without materializing the bytes; decode
/// applies it to every kTelemetry frame so a declared length that
/// disagrees with the payload size is rejected at the codec boundary.
void validate_blob_payload(const std::vector<double>& payload);

}  // namespace redopt::util
