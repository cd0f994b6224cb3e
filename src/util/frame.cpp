#include "util/frame.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/error.h"

namespace redopt::util {

namespace {

constexpr unsigned char kMagic0 = 'R';
constexpr unsigned char kMagic1 = 'F';
constexpr unsigned char kVersion = 1;

/// Body bytes before the payload doubles.
constexpr std::size_t kHeaderSize = 2 + 1 + 1 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kCrcSize = 4;

/// Caps the payload a decoder will allocate for; a corrupted count field
/// must not turn into a multi-gigabyte allocation.
constexpr std::size_t kMaxPayloadDoubles = std::size_t{1} << 22;

void put_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Slicing-by-8 tables for the reflected IEEE polynomial.  Row 0 is the
/// classic bytewise table; row k maps a byte to its CRC contribution
/// after k further zero bytes, so one step folds eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kEstimate) &&
         raw <= static_cast<std::uint8_t>(FrameType::kTelemetry);
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xffffffffu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = get_u32(data + i) ^ crc;
    const std::uint32_t hi = get_u32(data + i + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) crc = t[0][(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::size_t frame_wire_size_for(std::size_t payload_doubles) {
  return 4 + kHeaderSize + 8 * payload_doubles + kCrcSize;
}

std::size_t frame_wire_size(const Frame& frame) {
  return frame_wire_size_for(frame.payload.size());
}

std::string encode_frame(const Frame& frame) {
  REDOPT_REQUIRE(frame.payload.size() <= kMaxPayloadDoubles, "frame: payload too large to encode");
  const std::size_t count = frame.payload.size();
  const std::size_t body_length = kHeaderSize + 8 * count + kCrcSize;
  std::string out(4 + body_length, '\0');
  auto* p = reinterpret_cast<unsigned char*>(out.data());
  put_u32(p, static_cast<std::uint32_t>(body_length));
  unsigned char* body = p + 4;
  body[0] = kMagic0;
  body[1] = kMagic1;
  body[2] = kVersion;
  body[3] = static_cast<unsigned char>(frame.type);
  put_u32(body + 4, frame.agent);
  put_u64(body + 8, frame.round);
  put_u64(body + 16, frame.emitted);
  put_u32(body + 24, frame.hops);
  put_u32(body + 28, static_cast<std::uint32_t>(count));
  for (std::size_t k = 0; k < count; ++k) {
    put_u64(body + kHeaderSize + 8 * k, std::bit_cast<std::uint64_t>(frame.payload[k]));
  }
  put_u32(body + body_length - kCrcSize, crc32(body, body_length - kCrcSize));
  return out;
}

Frame decode_frame_body(const unsigned char* body, std::size_t size) {
  REDOPT_REQUIRE(size >= kHeaderSize + kCrcSize, "frame: body shorter than the fixed header");
  REDOPT_REQUIRE(body[0] == kMagic0 && body[1] == kMagic1, "frame: bad magic");
  REDOPT_REQUIRE(body[2] == kVersion, "frame: unsupported version");
  REDOPT_REQUIRE(known_type(body[3]), "frame: unknown frame type");

  Frame frame;
  frame.type = static_cast<FrameType>(body[3]);
  frame.agent = get_u32(body + 4);
  frame.round = get_u64(body + 8);
  frame.emitted = get_u64(body + 16);
  frame.hops = get_u32(body + 24);
  const std::uint32_t count = get_u32(body + 28);
  REDOPT_REQUIRE(count <= kMaxPayloadDoubles, "frame: payload count exceeds the codec cap");
  REDOPT_REQUIRE(size == kHeaderSize + 8 * static_cast<std::size_t>(count) + kCrcSize,
                 "frame: body length disagrees with the payload count");

  const std::uint32_t stored_crc = get_u32(body + size - kCrcSize);
  REDOPT_REQUIRE(stored_crc == crc32(body, size - kCrcSize), "frame: checksum mismatch");

  frame.payload.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    frame.payload[k] = std::bit_cast<double>(get_u64(body + kHeaderSize + 8 * k));
  }
  // A telemetry frame's payload is a packed blob; its self-declared byte
  // count must agree with the payload size, or the frame is corrupt even
  // though the checksum matched (e.g. a re-checksummed hostile frame).
  if (frame.type == FrameType::kTelemetry && count > 0) validate_blob_payload(frame.payload);
  return frame;
}

Frame decode_frame(const std::string& bytes) {
  REDOPT_REQUIRE(bytes.size() >= 4, "frame: shorter than the length prefix");
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint32_t body_length = get_u32(data);
  REDOPT_REQUIRE(bytes.size() == 4 + static_cast<std::size_t>(body_length),
                 "frame: length prefix disagrees with the buffer size");
  return decode_frame_body(data + 4, body_length);
}

std::vector<double> pack_blob(const std::string& bytes) {
  std::vector<double> packed(1 + (bytes.size() + 7) / 8, 0.0);
  packed[0] = static_cast<double>(bytes.size());
  if (!bytes.empty()) std::memcpy(packed.data() + 1, bytes.data(), bytes.size());
  return packed;
}

void validate_blob_payload(const std::vector<double>& payload) {
  REDOPT_REQUIRE(!payload.empty(), "blob: empty payload");
  const double declared = payload[0];
  // The declared length is a small non-negative integer stored in a
  // double; anything else (NaN, fractional, negative) is corruption.
  REDOPT_REQUIRE(declared >= 0.0 && declared == std::floor(declared) &&
                     declared <= 8.0 * static_cast<double>(kMaxPayloadDoubles),
                 "blob: declared byte count is not a valid length");
  const auto size = static_cast<std::size_t>(declared);
  const std::size_t room = 8 * (payload.size() - 1);
  REDOPT_REQUIRE(size <= room, "blob: declared byte count exceeds the payload");
  REDOPT_REQUIRE(room - size < 8, "blob: declared byte count disagrees with the payload size");
}

std::string unpack_blob(const std::vector<double>& payload) {
  validate_blob_payload(payload);
  const auto size = static_cast<std::size_t>(payload[0]);
  std::string bytes(size, '\0');
  if (size > 0) std::memcpy(bytes.data(), payload.data() + 1, size);
  return bytes;
}

}  // namespace redopt::util
