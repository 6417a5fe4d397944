// WireCodec unit coverage: identity/deflate/bxml round trips, corrupt-wire
// rejection (kCodecError), the decoded-bytes budget (kCapacityExceeded in
// the "limit exceeded" shape the server counts), and deflate interop with
// golden streams from the codec's earlier built-in encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "benchsupport/workload.hpp"
#include "codec/bxml.hpp"
#include "codec/deflate.hpp"
#include "codec/wire_codec.hpp"
#include "common/random.hpp"
#include "core/wire.hpp"
#include "soap/envelope.hpp"

namespace spi::codec {
namespace {

std::string sample_envelope(size_t repeats) {
  std::string body;
  for (size_t i = 0; i < repeats; ++i) {
    body += "<spi:Call id=\"" + std::to_string(i) +
            "\" service=\"EchoService\" operation=\"Echo\">"
            "<data xsi:type=\"xsd:string\">payload payload payload</data>"
            "</spi:Call>";
  }
  return soap::build_envelope("<spi:Parallel_Method>" + body +
                              "</spi:Parallel_Method>");
}

TEST(IdentityCodecTest, PassesBytesThrough) {
  const IdentityCodec& codec = identity_codec();
  EXPECT_EQ(codec.name(), "identity");
  auto encoded = codec.encode("hello");
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value(), "hello");
  auto decoded = codec.decode(encoded.value(), 1024);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), "hello");
}

TEST(IdentityCodecTest, DecodeBudgetStillApplies) {
  auto decoded = identity_codec().decode(std::string(100, 'x'), 10);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

TEST(DeflateCodecTest, RoundTripsAndCompressesEnvelopes) {
  DeflateCodec codec;
  EXPECT_EQ(codec.name(), "deflate");
  const std::string plain = sample_envelope(32);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), plain.size() / 2)
      << "repetitive envelope text must compress well";
  auto decoded = codec.decode(encoded.value(), plain.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), plain);
}

TEST(DeflateCodecTest, RoundTripsIncompressibleData) {
  DeflateCodec codec;
  SplitMix64 rng(0xD3F1A7E);
  std::string plain;
  plain.reserve(50000);
  while (plain.size() < 50000) {
    std::uint64_t word = rng.next();
    plain.append(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(encoded.value(), plain.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), plain);
}

TEST(DeflateCodecTest, CorruptBodyIsCodecError) {
  DeflateCodec codec;
  auto encoded = codec.encode(sample_envelope(4));
  ASSERT_TRUE(encoded.ok());
  std::string corrupt = encoded.value();
  corrupt[corrupt.size() / 2] ^= 0x5A;
  corrupt[corrupt.size() / 2 + 1] ^= 0xA5;
  auto decoded = codec.decode(corrupt, 1u << 20);
  ASSERT_FALSE(decoded.ok());
  // A flipped bit mid-stream lands on kCodecError (invalid stream or
  // checksum mismatch) — never a crash, never silent data.
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(DeflateCodecTest, TruncatedBodyIsCodecError) {
  DeflateCodec codec;
  auto encoded = codec.encode(sample_envelope(4));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(
      std::string_view(encoded.value()).substr(0, encoded.value().size() / 2),
      1u << 20);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(DeflateCodecTest, DecompressionBombShedsAtBudget) {
  DeflateCodec codec;
  const std::string plain(4u << 20, 'a');  // 4 MB of one byte
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), 64u * 1024);
  auto decoded = codec.decode(encoded.value(), 64 * 1024);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

// Golden zlib streams written by the self-contained RFC 1951 encoder this
// codec used before system zlib became its only engine. Peers still running
// that encoder send these shapes, one per DEFLATE block type: stored (1 KB
// of random bytes), fixed Huffman (a 10-byte string) and dynamic Huffman
// (a 32-call packed envelope).
constexpr char kStoredGolden[] =
    "789c010004fffbab41167c9df50bc5f6f330ba4f121f3e17087d82466b30d487c5384e63"
    "2809cf0952126f6c65926d5d4239726c1e3ad629216d3b5c7f2c821a724e201f2318a67e"
    "b06eb935e52a24a71aa9902e9aacace4ba7fa570108fdc867cf173986a8cdac85402b81d"
    "0eacfd474c26f3a42a14a7c305396e9ba24330814e474ded10a7a1d47ba57683dc1abd07"
    "0873f1ce9d78b3bc2b9930454db753a1bd4d7d97e0708398ee2dd9345f361eb36be2cfad"
    "f7d988d3dc8e7ab9021ad6ef77fb5208b13d32d28c8621e4a37a81369a0e9c7406a9bcad"
    "58311e3a62e902a61de0fb91f4c3828af0d7c89c3a066c8e4120aa8819fef918de3cec41"
    "2eefa9ed7f5efc9077c10f9b3056e61730978d4b9cdccc1e518452dddf675d93c1a570c2"
    "99f8215dffeb78a847bfe80c2b98a3290346ab0c996d196b75fc979cfc1340ceedc2c4dc"
    "bf6ecfbcc548ea94664acf1204b31d22278cb38ad30834e182f6ae966cb8aba9544e0a9c"
    "de9a20a4c47359d46e092d3090d96cbc2594f9e6ed46a86d785df50cfe79ad5ad415e7b6"
    "73203c8dec70f6d9b479f7531b016220a3cb54d6c056addd2e1d52a9a67a462c4acf4407"
    "aea798f749e5ad0be0e38c97a38fd639e6c4e5ab918f53b3ebd23fd1b8f74b9a8ef3adec"
    "5b2d8db13a3e2fa00bef6fca2e9a35e277f71902661db4a26bf581f5795572775badaca8"
    "276fdfd8477138c7dc2f539cc963b6fdaf9008e0a7f21490e4d7a5576fe9b24c7d10e89a"
    "205e4dc5c95d36042781f0753809f7ce767838298f7e6f5dff85c8a99df5662cbf7dd02b"
    "2029cbec0d91b4956382c193dc51eb734ea3f54607f74e1e09e9c23d0cd97ae5292a278b"
    "48d14b6d5ddd8c4cf49a3557db47f215d7966e7bf1ce83ef3726880126162903f8bee2a1"
    "c2040bd5b91c1205a8d13a9471b55ad55fa032f69bb0b92be1b08fcb4d825acfb94739e2"
    "b2e8dc88e80ff00d69faa676d84b13812a88d484bfa2fca2aeaa68582efcc62f7899c728"
    "f2ea6980fe0372a6bcd56635993cfc05203d199e96925d6e1e69b3ca54e388d66ba0c69a"
    "ce7a27c0519f8b9432aa3a58cb2e5c91c7ba6a9db18a02d872d6f634f8adc08f27bbe2e0"
    "752a989fc1d07c9f0c2ddb07c4786d8d9caa74fe5a0589698d4f038776502ec789de7542"
    "daf384e71d578ca7425cd1afe1a4d4cbb67b34513882108ae6fc242d017ca779fe4916db"
    "85022e4615c4093db2379f53662e167045a5f0929dc7a16352c9bcf3e48177fae3d02e53"
    "0a8f57fe0150e1553c123b3baa83a43ef3610122e32f9588ca0a870551e26791f213b144"
    "67329aaec927a3375bacc37ab0d4f220acaf696eddc6ab6e8fd3b2b4e36a5f32be093b4b"
    "e05045c5b1d2d7d08258196172f20c4da776a3c51a9aa1c297d67176f482f31dab396142"
    "50314061c8bd22e1c801ac722a22751d2fad8ed443a88fe4f9087b";
constexpr char kFixedGolden[] =
    "789c3330343236313533b7b004000aff020e";
constexpr char kDynamicGolden[] =
    "789cc598514f83301485ff4ad3f7d1b5e89c045874994f4e974c8d6fa68166907494d066"
    "6cffdeb2c9a6d3449f3c4f2d877b7aca25f9428927dbb5261bd5d8d25409e5c190125565"
    "262fab55429f9fee06633a49e3e5e3cd62307b788966d54669532be26d958d7a3da18573"
    "75c498cd0ab59636f0b7ad9175609a15eb264c7d1819fd6a9dfec57ad8cfd1bab5f9d1d5"
    "b66dd086fb62311c72f63abf5fee173a1597bf170fcaca3a5965aa77d9fae4f2f3406de5"
    "bad6aab78e3a917eeacbadc97769ecc568211ba9b5d26f73e50a931fc4a99748e977eddb"
    "6b55b3293395d0595698e5e18212df9a46bafd4be874bf762e9d247ef791dbd5beda3f74"
    "645de3fb40d35aeeb49139391b63d679d298f59167e11c192e90e12132fc02197e890c1f"
    "21c3af90e16364f835143258c44119c7a190e350ca7128e63894731c0a3a0e251d87a28e"
    "435927a0ac13d8ef3928eb04947502ca3a01659d80b24e405927a0ac1350d68550d685ff"
    "cd3af6e3599e9d1df8d9b71f23e93bb0ec1035";

std::string from_hex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

std::string random_kilobyte() {
  SplitMix64 rng(0x5EED1CB);
  std::string plain;
  while (plain.size() < 1024) {
    std::uint64_t word = rng.next();
    plain.append(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  return plain;
}

TEST(DeflateInteropTest, DecodesStoredBlockGolden) {
  const std::string wire = from_hex(kStoredGolden);
  ASSERT_EQ((static_cast<unsigned char>(wire[2]) >> 1) & 3, 0);  // BTYPE
  auto decoded = DeflateCodec().decode(wire, 1u << 20);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), random_kilobyte());
}

TEST(DeflateInteropTest, DecodesFixedBlockGolden) {
  const std::string wire = from_hex(kFixedGolden);
  ASSERT_EQ((static_cast<unsigned char>(wire[2]) >> 1) & 3, 1);
  auto decoded = DeflateCodec().decode(wire, 1u << 20);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), "0123456789");
}

TEST(DeflateInteropTest, DecodesDynamicBlockGolden) {
  const std::string wire = from_hex(kDynamicGolden);
  ASSERT_EQ((static_cast<unsigned char>(wire[2]) >> 1) & 3, 2);
  auto decoded = DeflateCodec().decode(wire, 1u << 20);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), sample_envelope(32));
}

TEST(DeflateInteropTest, EncodeIsNoLargerThanTheGoldenWire) {
  auto encoded = DeflateCodec().encode(sample_envelope(32));
  ASSERT_TRUE(encoded.ok());
  const size_t golden = from_hex(kDynamicGolden).size();
  EXPECT_LE(encoded.value().size(), golden * 102 / 100);
}

TEST(DeflateInteropTest, EncodeOfStructuredTextEnvelopeKeepsTheOldWireSize) {
  // The envelope perfbench's pack4_text_deflate sends (M=4 x 4 KB of
  // structured text). The earlier built-in encoder wrote it in 3,229
  // bytes; zlib level 6 writes 3,437 (+6.4%), beyond the 2% the repo
  // benchmark allows deflate's wire bytes to move.
  constexpr size_t kOldEncoderBytes = 3229;
  const std::string plain = core::wire::serialize_packed_request(
      bench::make_echo_calls_text(4, 4096, 42));
  auto encoded = DeflateCodec().encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LE(encoded.value().size(), kOldEncoderBytes * 102 / 100);
}

TEST(BxmlCodecTest, DocumentMatchesTextParse) {
  BxmlCodec codec;
  EXPECT_EQ(codec.name(), "bxml");
  EXPECT_TRUE(codec.decodes_to_document());
  const std::string plain = sample_envelope(8);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), plain.size())
      << "known-vocabulary envelopes must shrink";
  auto document = codec.decode_document(encoded.value(), 1u << 20, {});
  ASSERT_TRUE(document.ok()) << document.error().to_string();
  auto reference = xml::parse_document(plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(document.value().root == reference.value().root);
}

TEST(BxmlCodecTest, TextDecodeRoundTrips) {
  BxmlCodec codec;
  const std::string plain = sample_envelope(2);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(encoded.value(), 1u << 20);
  ASSERT_TRUE(decoded.ok());
  auto reference = xml::parse_document(plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(decoded.value(), reference.value().to_string());
}

TEST(BxmlCodecTest, MalformedInputIsInvalidArgument) {
  BxmlCodec codec;
  auto encoded = codec.encode("<open>never closed");
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.error().code(), ErrorCode::kInvalidArgument);
}

TEST(BxmlCodecTest, MissingMagicIsCodecError) {
  BxmlCodec codec;
  auto decoded = codec.decode_document("<not-bxml/>", 1024, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(BxmlCodecTest, TruncatedStreamIsCodecError) {
  BxmlCodec codec;
  auto encoded = codec.encode(sample_envelope(2));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode_document(
      std::string_view(encoded.value()).substr(0, encoded.value().size() / 2),
      1u << 20, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(BxmlCodecTest, DecodedBudgetSheds) {
  BxmlCodec codec;
  auto encoded = codec.encode(sample_envelope(64));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode_document(encoded.value(), 256, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

TEST(BxmlCodecTest, ParseLimitsStillGovernTheBinaryPath) {
  BxmlCodec codec;
  std::string deep = "<SOAP-ENV:Envelope><SOAP-ENV:Body>";
  for (int i = 0; i < 20; ++i) deep += "<nest>";
  for (int i = 0; i < 20; ++i) deep += "</nest>";
  deep += "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
  auto encoded = codec.encode(deep);
  ASSERT_TRUE(encoded.ok());

  xml::ParseLimits tiny;
  tiny.max_depth = 8;
  auto decoded = codec.decode_document(encoded.value(), 1u << 20, tiny);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
  EXPECT_NE(decoded.error().message().find("parse limit exceeded: depth"),
            std::string::npos);
}

TEST(BxmlStaticDictionaryTest, EntriesAreUniqueAndNonEmpty) {
  auto dictionary = bxml_static_dictionary();
  ASSERT_FALSE(dictionary.empty());
  std::set<std::string_view> seen;
  for (std::string_view entry : dictionary) {
    EXPECT_FALSE(entry.empty());
    EXPECT_TRUE(seen.insert(entry).second)
        << "duplicate dictionary entry: " << entry;
  }
  // The envelope skeleton must stay at the front: wire compatibility of
  // every encoded message depends on these indices never moving.
  EXPECT_EQ(dictionary[0], "SOAP-ENV:Envelope");
}

}  // namespace
}  // namespace spi::codec
