#include "compress/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "compress/huffman.h"
#include "hash/sha256.h"

namespace mmlib {

namespace {

constexpr uint32_t kFrameMagic = 0x4d4d4c46;  // "MMLF"

void WriteVarint(Bytes* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Reads one varint at *pos; false if the input ends inside it or it runs
/// past 64 bits.
inline bool NextVarint(const uint8_t* in, size_t size, size_t* pos,
                       uint64_t* v) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < size) {
    const uint8_t byte = in[(*pos)++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
    shift += 7;
    if (shift > 63) {
      break;
    }
  }
  return false;
}

Result<uint64_t> ReadVarint(const Bytes& in, size_t* pos) {
  uint64_t v = 0;
  if (!NextVarint(in.data(), in.size(), pos, &v)) {
    return Status::Corruption("truncated varint");
  }
  return v;
}

}  // namespace

Result<Bytes> Codec::Frame(const Bytes& input) const {
  MMLIB_ASSIGN_OR_RETURN(Bytes compressed, Compress(input));
  BytesWriter writer;
  writer.WriteU32(kFrameMagic);
  writer.WriteU8(static_cast<uint8_t>(kind()));
  writer.WriteU64(input.size());
  writer.WriteU32(Crc32(input));
  writer.WriteBlob(compressed);
  return writer.TakeBytes();
}

Result<Bytes> Codec::Unframe(const Bytes& frame) {
  BytesReader reader(frame);
  MMLIB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  MMLIB_ASSIGN_OR_RETURN(uint8_t kind_byte, reader.ReadU8());
  if (kind_byte > static_cast<uint8_t>(CodecKind::kLz77Huffman)) {
    return Status::Corruption("unknown codec id " + std::to_string(kind_byte));
  }
  MMLIB_ASSIGN_OR_RETURN(uint64_t original_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint32_t expected_crc, reader.ReadU32());
  MMLIB_ASSIGN_OR_RETURN(Bytes compressed, reader.ReadBlob());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after frame");
  }
  if (original_size > kDefaultMaxOutput) {
    return Status::Corruption("frame original size out of range");
  }
  const Codec* codec = ForKind(static_cast<CodecKind>(kind_byte));
  // The header's size field bounds decompression, so a corrupted stream
  // cannot expand past the expected payload.
  MMLIB_ASSIGN_OR_RETURN(
      Bytes payload,
      codec->Decompress(compressed, static_cast<size_t>(original_size)));
  if (payload.size() != original_size) {
    return Status::Corruption("decompressed size mismatch");
  }
  if (Crc32(payload) != expected_crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return payload;
}

const Codec* Codec::ForKind(CodecKind kind) {
  static const IdentityCodec* identity = new IdentityCodec();
  static const RleCodec* rle = new RleCodec();
  static const Lz77Codec* lz77 = new Lz77Codec();
  static const Lz77HuffmanCodec* lz77_huffman = new Lz77HuffmanCodec();
  switch (kind) {
    case CodecKind::kIdentity:
      return identity;
    case CodecKind::kRle:
      return rle;
    case CodecKind::kLz77:
      return lz77;
    case CodecKind::kLz77Huffman:
      return lz77_huffman;
  }
  return identity;
}

Result<const Codec*> Codec::ForName(std::string_view name) {
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kRle, CodecKind::kLz77,
        CodecKind::kLz77Huffman}) {
    const Codec* codec = ForKind(kind);
    if (codec->name() == name) {
      return codec;
    }
  }
  return Status::NotFound("unknown codec: " + std::string(name));
}

Result<Bytes> IdentityCodec::Compress(const Bytes& input) const {
  return input;
}

Result<Bytes> IdentityCodec::Decompress(const Bytes& input,
                                        size_t max_output) const {
  if (input.size() > max_output) {
    return Status::Corruption("identity payload exceeds output limit");
  }
  return input;
}

Result<Bytes> RleCodec::Compress(const Bytes& input) const {
  // Format: sequence of (varint count, byte) pairs.
  Bytes out;
  size_t i = 0;
  while (i < input.size()) {
    const uint8_t value = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == value) {
      ++run;
    }
    WriteVarint(&out, run);
    out.push_back(value);
    i += run;
  }
  return out;
}

Result<Bytes> RleCodec::Decompress(const Bytes& input,
                                   size_t max_output) const {
  Bytes out;
  size_t pos = 0;
  while (pos < input.size()) {
    MMLIB_ASSIGN_OR_RETURN(uint64_t run, ReadVarint(input, &pos));
    if (pos >= input.size()) {
      return Status::Corruption("RLE stream truncated");
    }
    if (run == 0 || run > max_output - out.size()) {
      return Status::Corruption("invalid RLE run length");
    }
    out.insert(out.end(), run, input[pos++]);
  }
  return out;
}

Result<Bytes> Lz77HuffmanCodec::Compress(const Bytes& input) const {
  MMLIB_ASSIGN_OR_RETURN(Bytes tokens,
                         Codec::ForKind(CodecKind::kLz77)->Compress(input));
  return huffman::Encode(tokens);
}

Result<Bytes> Lz77HuffmanCodec::Decompress(const Bytes& input,
                                           size_t max_output) const {
  // The LZ77 token stream is at most a small constant factor larger than
  // the decompressed payload (literal runs carry their bytes verbatim).
  MMLIB_ASSIGN_OR_RETURN(
      Bytes tokens,
      huffman::Decode(input, /*max_output=*/2 * max_output + 1024));
  return Codec::ForKind(CodecKind::kLz77)->Decompress(tokens, max_output);
}

namespace {

// LZ77 token stream:
//   0x00 <varint len> <len literal bytes>
//   0x01 <varint len> <varint distance>     (len >= kMinMatch)
constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1024;
constexpr size_t kHashBits = 16;
constexpr size_t kMaxChainDepth = 32;
/// Empty hash-head slot; positions are 32-bit.
constexpr uint32_t kNoPosition = 0xffffffffu;
/// Upper bound on the bytes of one token's tag and varints.
constexpr size_t kMaxTokenHeader = 1 + 2 * 10;

inline uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of a and b, at most `limit`, compared eight
/// bytes at a time.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (x != y) {
      const uint64_t diff = x ^ y;
      return len + static_cast<size_t>(
                       (std::endian::native == std::endian::little
                            ? std::countr_zero(diff)
                            : std::countl_zero(diff)) /
                       8);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

inline uint8_t* PutVarint(uint8_t* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

}  // namespace

Result<Bytes> Lz77Codec::Compress(const Bytes& input) const {
  Bytes out;
  const size_t n = input.size();
  if (n == 0) {
    return out;
  }
  if (n >= kNoPosition) {
    return Status::InvalidArgument("LZ77 input exceeds 4 GiB");
  }
  const uint8_t* data = input.data();

  // Hash chains: head[h] is the latest position with hash h; prev is a
  // ring over the window, read only for candidates inside the window, so
  // a slot is never read after a newer position has reused it.
  std::vector<uint32_t> head(1 << kHashBits, kNoPosition);
  std::vector<uint32_t> prev(kWindowSize);
  auto insert = [&](size_t pos) {
    if (pos + kMinMatch <= n) {
      const uint32_t h = HashQuad(data + pos);
      prev[pos & (kWindowSize - 1)] = head[h];
      head[h] = static_cast<uint32_t>(pos);
    }
  };

  // Tokens are written through a cursor into a buffer grown ahead of each
  // token and trimmed at the end.
  out.resize(n + n / 8 + 64);
  size_t pos = 0;
  auto reserve = [&](size_t bytes) {
    if (pos + bytes > out.size()) {
      out.resize(std::max(out.size() * 2, pos + bytes));
    }
  };

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      const size_t len = end - literal_start;
      reserve(kMaxTokenHeader + len);
      uint8_t* cursor = out.data() + pos;
      *cursor++ = 0x00;
      cursor = PutVarint(cursor, len);
      std::memcpy(cursor, data + literal_start, len);
      pos = static_cast<size_t>(cursor + len - out.data());
    }
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const size_t limit = std::min(kMaxMatch, n - i);
      uint32_t candidate = head[HashQuad(data + i)];
      size_t depth = 0;
      while (candidate != kNoPosition && depth < kMaxChainDepth &&
             i - candidate <= kWindowSize) {
        const size_t cand = candidate;
        // Only a candidate that also matches at best_len can be longer.
        if (best_len == limit) {
          break;
        }
        if (data[cand + best_len] == data[i + best_len]) {
          const size_t len = MatchLength(data + cand, data + i, limit);
          if (len >= kMinMatch && len > best_len) {
            best_len = len;
            best_dist = i - cand;
            if (len == kMaxMatch) {
              break;
            }
          }
        }
        candidate = prev[cand & (kWindowSize - 1)];
        ++depth;
      }
    }

    if (best_len >= kMinMatch) {
      flush_literals(i);
      reserve(kMaxTokenHeader);
      uint8_t* cursor = out.data() + pos;
      *cursor++ = 0x01;
      cursor = PutVarint(cursor, best_len);
      cursor = PutVarint(cursor, best_dist);
      pos = static_cast<size_t>(cursor - out.data());
      // Insert hash entries for all covered positions so later matches can
      // reference inside this match.
      const size_t match_end = i + best_len;
      for (; i < match_end; ++i) {
        insert(i);
      }
      literal_start = i;
    } else {
      insert(i);
      ++i;
    }
  }
  flush_literals(n);
  out.resize(pos);
  return out;
}

Result<Bytes> Lz77Codec::Decompress(const Bytes& input,
                                    size_t max_output) const {
  const uint8_t* in = input.data();
  const size_t size = input.size();
  // Pass 1 validates the token stream and sizes the output; pass 2 copies
  // into the output sized once.
  size_t total = 0;
  size_t pos = 0;
  while (pos < size) {
    const uint8_t tag = in[pos++];
    uint64_t len = 0;
    if (tag > 0x01) {
      return Status::Corruption("invalid LZ77 token tag");
    }
    if (!NextVarint(in, size, &pos, &len)) {
      return Status::Corruption("truncated varint");
    }
    if (tag == 0x00) {
      if (len > size - pos) {
        return Status::Corruption("LZ77 literal run truncated");
      }
      pos += len;
    } else {
      uint64_t dist = 0;
      if (!NextVarint(in, size, &pos, &dist)) {
        return Status::Corruption("truncated varint");
      }
      if (dist == 0 || dist > total) {
        return Status::Corruption("LZ77 match distance out of range");
      }
    }
    if (len > max_output - total) {
      return Status::Corruption("LZ77 output exceeds limit");
    }
    total += len;
  }

  Bytes out(total);
  uint8_t* dst = out.data();
  pos = 0;
  while (pos < size) {
    const uint8_t tag = in[pos++];
    uint64_t len = 0;
    uint64_t dist = 0;
    NextVarint(in, size, &pos, &len);
    if (tag == 0x00) {
      std::memcpy(dst, in + pos, len);
      pos += len;
    } else {
      NextVarint(in, size, &pos, &dist);
      const uint8_t* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, len);
      } else {
        // Overlapping match: copies its own output byte by byte.
        for (size_t k = 0; k < len; ++k) {
          dst[k] = src[k];
        }
      }
    }
    dst += len;
  }
  return out;
}

}  // namespace mmlib
