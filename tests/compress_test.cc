#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "compress/codec.h"
#include "compress/huffman.h"
#include "data/archive.h"
#include "data/dataset.h"
#include "hash/sha256.h"
#include "util/random.h"

namespace mmlib {
namespace {

Bytes MakePayload(const std::string& kind, size_t size, uint64_t seed) {
  Bytes data;
  data.reserve(size);
  Rng rng(seed);
  if (kind == "zeros") {
    data.assign(size, 0);
  } else if (kind == "runs") {
    while (data.size() < size) {
      const uint8_t value = static_cast<uint8_t>(rng.NextBelow(4));
      const size_t run = 1 + rng.NextBelow(40);
      for (size_t i = 0; i < run && data.size() < size; ++i) {
        data.push_back(value);
      }
    }
  } else if (kind == "random") {
    for (size_t i = 0; i < size; ++i) {
      data.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
  } else if (kind == "text") {
    const std::string words[] = {"model ", "parameter ", "update ",
                                 "provenance ", "baseline "};
    while (data.size() < size) {
      const std::string& w = words[rng.NextBelow(5)];
      data.insert(data.end(), w.begin(), w.end());
    }
    data.resize(size);
  } else if (kind == "periodic") {
    for (size_t i = 0; i < size; ++i) {
      data.push_back(static_cast<uint8_t>(i % 7));
    }
  }
  return data;
}

struct RoundtripCase {
  const char* codec;
  const char* kind;
  size_t size;
};

class CodecRoundtripProperty
    : public ::testing::TestWithParam<RoundtripCase> {};

TEST_P(CodecRoundtripProperty, CompressDecompressIsIdentity) {
  const RoundtripCase c = GetParam();
  const Codec* codec = Codec::ForName(c.codec).value();
  const Bytes payload = MakePayload(c.kind, c.size, c.size + 17);
  auto compressed = codec->Compress(payload);
  ASSERT_TRUE(compressed.ok());
  auto restored = codec->Decompress(compressed.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), payload);
}

TEST_P(CodecRoundtripProperty, FrameUnframeIsIdentity) {
  const RoundtripCase c = GetParam();
  const Codec* codec = Codec::ForName(c.codec).value();
  const Bytes payload = MakePayload(c.kind, c.size, c.size + 31);
  auto frame = codec->Frame(payload);
  ASSERT_TRUE(frame.ok());
  auto restored = Codec::Unframe(frame.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), payload);
}

std::vector<RoundtripCase> AllRoundtripCases() {
  std::vector<RoundtripCase> cases;
  for (const char* codec : {"identity", "rle", "lz77", "lz77-huffman"}) {
    for (const char* kind : {"zeros", "runs", "random", "text", "periodic"}) {
      for (size_t size : {0, 1, 3, 100, 5000, 70000}) {
        cases.push_back(RoundtripCase{codec, kind, size});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundtripProperty,
                         ::testing::ValuesIn(AllRoundtripCases()));

TEST(CodecTest, LookupByName) {
  EXPECT_EQ(Codec::ForName("lz77").value()->kind(), CodecKind::kLz77);
  EXPECT_EQ(Codec::ForName("rle").value()->kind(), CodecKind::kRle);
  EXPECT_EQ(Codec::ForName("identity").value()->kind(),
            CodecKind::kIdentity);
  EXPECT_FALSE(Codec::ForName("zstd").ok());
}

TEST(CodecTest, RleCompressesRunsWell) {
  const Bytes payload = MakePayload("zeros", 10000, 1);
  const Bytes compressed =
      Codec::ForKind(CodecKind::kRle)->Compress(payload).value();
  EXPECT_LT(compressed.size(), payload.size() / 100);
}

TEST(CodecTest, Lz77CompressesTextWell) {
  const Bytes payload = MakePayload("text", 20000, 2);
  const Bytes compressed =
      Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  EXPECT_LT(compressed.size(), payload.size() / 2);
}

TEST(CodecTest, Lz77HandlesOverlappingMatches) {
  // "abcabcabc..." forces matches that copy from their own output.
  Bytes payload;
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<uint8_t>('a' + i % 3));
  }
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes compressed = codec->Compress(payload).value();
  EXPECT_LT(compressed.size(), 100u);
  EXPECT_EQ(codec->Decompress(compressed).value(), payload);
}

TEST(CodecTest, UnframeDetectsPayloadCorruption) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes payload = MakePayload("text", 5000, 3);
  Bytes frame = codec->Frame(payload).value();
  // Flip a byte inside the compressed blob (past the header).
  frame[frame.size() / 2] ^= 0xff;
  auto result = Codec::Unframe(frame);
  EXPECT_FALSE(result.ok());
}

TEST(CodecTest, UnframeDetectsBadMagic) {
  const Codec* codec = Codec::ForKind(CodecKind::kIdentity);
  Bytes frame = codec->Frame(MakePayload("runs", 100, 4)).value();
  frame[0] ^= 0x01;
  EXPECT_EQ(Codec::Unframe(frame).status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, UnframeDetectsUnknownCodecId) {
  const Codec* codec = Codec::ForKind(CodecKind::kIdentity);
  Bytes frame = codec->Frame(MakePayload("runs", 100, 5)).value();
  frame[4] = 0x7f;  // codec id byte
  EXPECT_EQ(Codec::Unframe(frame).status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, UnframeDetectsTruncation) {
  const Codec* codec = Codec::ForKind(CodecKind::kRle);
  Bytes frame = codec->Frame(MakePayload("runs", 1000, 6)).value();
  frame.resize(frame.size() - 10);
  EXPECT_FALSE(Codec::Unframe(frame).ok());
}

TEST(CodecTest, DecompressRejectsGarbage) {
  const Bytes garbage = MakePayload("random", 100, 7);
  // Tag bytes other than 0x00/0x01 are invalid for LZ77.
  Bytes bad = {0x55, 0x01, 0x02};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
  // RLE: run length zero is invalid.
  Bytes zero_run = {0x00, 0x99};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kRle)->Decompress(zero_run).ok());
  (void)garbage;
}

TEST(CodecTest, Lz77RejectsOutOfRangeDistance) {
  // Match (tag 0x01) with distance 5 but no prior output.
  Bytes bad = {0x01, 0x04, 0x05};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
}

TEST(CodecTest, CompressionIsDeterministic) {
  const Bytes payload = MakePayload("text", 30000, 8);
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kRle, CodecKind::kLz77,
        CodecKind::kLz77Huffman}) {
    const Codec* codec = Codec::ForKind(kind);
    EXPECT_EQ(codec->Compress(payload).value(),
              codec->Compress(payload).value());
  }
}

TEST(CodecTest, HuffmanStageShrinksLz77Output) {
  const Bytes payload = MakePayload("text", 60000, 9);
  const Bytes lz77 =
      Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  const Bytes deflated =
      Codec::ForKind(CodecKind::kLz77Huffman)->Compress(payload).value();
  EXPECT_LT(deflated.size(), lz77.size());
}

TEST(HuffmanTest, EncodeDecodeRoundtrip) {
  for (const char* kind : {"zeros", "runs", "random", "text"}) {
    for (size_t size : {0, 1, 2, 500, 40000}) {
      const Bytes payload = MakePayload(kind, size, size + 1);
      auto encoded = huffman::Encode(payload);
      ASSERT_TRUE(encoded.ok());
      auto decoded = huffman::Decode(encoded.value());
      ASSERT_TRUE(decoded.ok()) << kind << " " << size << ": "
                                << decoded.status();
      EXPECT_EQ(decoded.value(), payload) << kind << " " << size;
    }
  }
}

TEST(HuffmanTest, SingleSymbolInput) {
  const Bytes payload(1000, 0x7a);
  auto encoded = huffman::Encode(payload).value();
  // 1000 symbols at one bit each plus the 136-byte header.
  EXPECT_LT(encoded.size(), 300u);
  EXPECT_EQ(huffman::Decode(encoded).value(), payload);
}

TEST(HuffmanTest, SkewedDistributionCompressesWell) {
  Bytes payload;
  Rng rng(10);
  for (int i = 0; i < 50000; ++i) {
    // 90% one symbol, the rest spread thinly.
    payload.push_back(rng.NextBelow(10) == 0
                          ? static_cast<uint8_t>(rng.NextBelow(256))
                          : 0x41);
  }
  const Bytes encoded = huffman::Encode(payload).value();
  EXPECT_LT(encoded.size(), payload.size() / 2);
  EXPECT_EQ(huffman::Decode(encoded).value(), payload);
}

TEST(HuffmanTest, DecodeRejectsTruncation) {
  const Bytes payload = MakePayload("text", 5000, 11);
  Bytes encoded = huffman::Encode(payload).value();
  encoded.resize(encoded.size() - 10);
  EXPECT_FALSE(huffman::Decode(encoded).ok());
}

TEST(HuffmanTest, DecodeRejectsEmptyTableWithPayload) {
  // Header claims 5 bytes of payload but all code lengths are zero.
  BytesWriter writer;
  writer.WriteU64(5);
  for (int i = 0; i < 128; ++i) {
    writer.WriteU8(0);
  }
  EXPECT_FALSE(huffman::Decode(writer.bytes()).ok());
}

// ---------------------------------------------------------------------------
// Pinned encoder output. The LZ77 token stream (and the Huffman stage over
// it) is part of the stored format: a faster match finder must emit the
// same tokens. Digests are SHA-256 of Compress() output.

/// The MPA dataset archive payload: CO-512 scaled by 64, serialized
/// without compression, as the provenance save service archives it.
Bytes DatasetPayload() {
  const data::SyntheticImageDataset source(
      data::PaperDatasetId::kCocoOutdoor512, 64);
  const std::unique_ptr<data::InMemoryDataset> dataset =
      data::Materialize(source);
  return data::DatasetArchiver(Codec::ForKind(CodecKind::kIdentity))
      .Archive(*dataset)
      .value();
}

/// Random bytes over a 5-symbol alphabet: many short, near matches.
Bytes LowEntropyPayload() {
  Rng rng(4242);
  Bytes data(200000);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>('a' + rng.NextBelow(5));
  }
  return data;
}

/// A literal prefix, a 5000-byte run (longer than the 1024-byte maximum
/// match) and a literal suffix.
Bytes LongRunPayload() {
  Bytes data = MakePayload("random", 100, 5);
  data.insert(data.end(), 5000, 0xab);
  const Bytes tail = MakePayload("random", 100, 6);
  data.insert(data.end(), tail.begin(), tail.end());
  return data;
}

/// Repeats at the edge of the 64 KiB window: a block repeated at distance
/// 65536 (inside the window) and another at distance 65537 (outside).
Bytes WindowEdgePayload() {
  const Bytes a = MakePayload("random", 65536, 7);
  Bytes data = a;
  data.insert(data.end(), a.begin(), a.begin() + 300);
  const Bytes b = MakePayload("random", 65537, 8);
  data.insert(data.end(), b.begin(), b.end());
  data.insert(data.end(), b.begin(), b.begin() + 300);
  return data;
}

struct PinnedCodecCase {
  const char* name;
  Bytes (*payload)();
  const char* lz77_hex;
  const char* lz77_huffman_hex;
};

const PinnedCodecCase kPinnedCodecCases[] = {
    {"dataset", DatasetPayload,
     "44acf03e1ba05735d699b6179683072f840568227af4d5148aa429ac791e3a4e",
     "3d6bd8a1de8a704d2a7fe84be3d8ccc99f5ffe6844e11602fe79da6f589bbc1a"},
    {"low_entropy", LowEntropyPayload,
     "27e5c5dc7501c8334738132c0e5c8d6b1c9cd3586d5ae41aee5164e44c9dea12",
     "223e3f600cd49b727b40779bce80918e252fb69844aab823743cedeb99f35093"},
    {"long_run", LongRunPayload,
     "149963526b7aa2c07d643cdccaa1fdcf10fe092692acdda152d52ac1cb9a7994",
     "94e30daf84a30026d58da3c59ae58288215efc5fad06aef2bc11925b5771b23f"},
    {"window_edge", WindowEdgePayload,
     "70f9aad25a5f4d34368f4a7ce7bcb0ee6eb085261bc9570e20ecf8ab7f80537b",
     "58880d914221a4a2571ad21aad51ba72972d8bc09c13ba39c8c2cd7ae599bd05"},
};

class PinnedCodecTest : public ::testing::TestWithParam<PinnedCodecCase> {};

TEST_P(PinnedCodecTest, EncodedBytesArePinnedAndRoundTrip) {
  const PinnedCodecCase& c = GetParam();
  const Bytes payload = c.payload();
  for (const char* name : {"lz77", "lz77-huffman"}) {
    SCOPED_TRACE(name);
    const Codec* codec = Codec::ForName(name).value();
    const Bytes encoded = codec->Compress(payload).value();
    EXPECT_EQ(Sha256::Hash(encoded).ToHex(),
              std::string(name) == "lz77" ? c.lz77_hex : c.lz77_huffman_hex);
    EXPECT_EQ(codec->Decompress(encoded, payload.size()).value(), payload);
    const Bytes frame = codec->Frame(payload).value();
    EXPECT_EQ(Codec::Unframe(frame).value(), payload);
  }
}

TEST_P(PinnedCodecTest, TruncatedStreamsFailOrDecodeAPrefix) {
  const Bytes payload = GetParam().payload();
  const Codec* lz77 = Codec::ForKind(CodecKind::kLz77);
  const Bytes encoded = lz77->Compress(payload).value();
  const Bytes frame = Codec::ForKind(CodecKind::kLz77Huffman)
                          ->Frame(payload)
                          .value();
  for (size_t cut : {size_t{1}, size_t{2}, size_t{7}, encoded.size() / 3,
                     encoded.size() / 2, encoded.size() - 1}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<ptrdiff_t>(cut));
    Result<Bytes> decoded = lz77->Decompress(truncated, payload.size());
    if (decoded.ok()) {
      // A cut at a token boundary is a valid shorter stream.
      ASSERT_LT(decoded->size(), payload.size());
      EXPECT_TRUE(std::equal(decoded->begin(), decoded->end(),
                             payload.begin()));
    }
    const Bytes short_frame(
        frame.begin(),
        frame.begin() + static_cast<ptrdiff_t>(std::min(cut, frame.size() - 1)));
    EXPECT_FALSE(Codec::Unframe(short_frame).ok());
  }
}

TEST_P(PinnedCodecTest, CorruptStreamsAreRejected) {
  const Bytes payload = GetParam().payload();
  for (CodecKind kind : {CodecKind::kLz77, CodecKind::kLz77Huffman}) {
    const Bytes frame = Codec::ForKind(kind)->Frame(payload).value();
    for (size_t at : {frame.size() / 2, frame.size() - 5, frame.size() - 1}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " at=" + std::to_string(at));
      Bytes corrupt = frame;
      corrupt[at] ^= 0x5a;
      Result<Bytes> restored = Codec::Unframe(corrupt);
      // A flip in the Huffman stage's final padding bits changes nothing;
      // any other flip must be caught, never returned as a wrong payload.
      if (at == frame.size() / 2) {
        EXPECT_FALSE(restored.ok());
      } else if (restored.ok()) {
        EXPECT_EQ(restored.value(), payload);
      }
    }
  }
  // A match whose distance reaches before the start of the output.
  Bytes bad_match = Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  bad_match.insert(bad_match.end(), {0x01, 0x04, 0xff, 0xff, 0xff, 0x7f});
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad_match).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, PinnedCodecTest, ::testing::ValuesIn(kPinnedCodecCases),
    [](const ::testing::TestParamInfo<PinnedCodecCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mmlib
