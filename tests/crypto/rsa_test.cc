#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

#include <string>

#include "src/base/random.h"

namespace para::crypto {
namespace {

// Key generation is the slow part; share one pair across tests.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    para::Random rng(0xC0FFEE);
    keys_ = new RsaKeyPair(GenerateKeyPair(512, rng));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static RsaKeyPair* keys_;
};

RsaKeyPair* RsaTest::keys_ = nullptr;

TEST_F(RsaTest, KeyShape) {
  EXPECT_EQ(keys_->public_key.modulus.bit_length(), 512u);
  EXPECT_EQ(keys_->public_key.exponent, BigNum(65537));
  EXPECT_EQ(keys_->public_key.modulus, keys_->private_key.modulus);
  EXPECT_EQ(keys_->public_key.modulus_bytes(), 64u);
  const RsaPrivateKey& key = keys_->private_key;
  EXPECT_EQ(BigNum::Mul(key.p, key.q), key.modulus);
  EXPECT_EQ(key.public_exponent, keys_->public_key.exponent);
  EXPECT_EQ(BigNum::Mod(BigNum::Mul(key.qinv, key.q), key.p), BigNum(1));
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Digest digest = Sha256::HashString("certify me");
  auto signature = Sign(keys_->private_key, digest);
  EXPECT_EQ(signature.size(), keys_->public_key.modulus_bytes());
  EXPECT_TRUE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, TamperedDigestFails) {
  Digest digest = Sha256::HashString("original");
  auto signature = Sign(keys_->private_key, digest);
  Digest other = Sha256::HashString("tampered");
  auto status = Verify(keys_->public_key, other, signature);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), para::ErrorCode::kCertificateInvalid);
}

TEST_F(RsaTest, TamperedSignatureFails) {
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  signature[10] ^= 0x40;
  EXPECT_FALSE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, WrongLengthSignatureFails) {
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  signature.pop_back();
  EXPECT_FALSE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, SignatureOutOfRangeFails) {
  Digest digest = Sha256::HashString("payload");
  // All-FF "signature" >= modulus must be rejected before exponentiation.
  std::vector<uint8_t> bogus(keys_->public_key.modulus_bytes(), 0xFF);
  EXPECT_FALSE(Verify(keys_->public_key, digest, bogus).ok());
}

TEST_F(RsaTest, WrongKeyFails) {
  para::Random rng(0xBEEF);
  RsaKeyPair other = GenerateKeyPair(512, rng);
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  EXPECT_FALSE(Verify(other.public_key, digest, signature).ok());
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  para::Random rng(0xDEAD);
  RsaKeyPair other = GenerateKeyPair(512, rng);
  EXPECT_TRUE(DigestEqual(keys_->public_key.Fingerprint(), keys_->public_key.Fingerprint()));
  EXPECT_FALSE(DigestEqual(keys_->public_key.Fingerprint(), other.public_key.Fingerprint()));
}

TEST_F(RsaTest, DeterministicSignatures) {
  Digest digest = Sha256::HashString("same input");
  EXPECT_EQ(Sign(keys_->private_key, digest), Sign(keys_->private_key, digest));
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Wire-format lock: a fixed-seed key and a fixed digest must keep signing to
// these exact bytes whatever the exponentiation underneath (key generation
// consumes the RNG identically, and RSA signing is deterministic).
TEST_F(RsaTest, GoldenSignatureBytes) {
  EXPECT_EQ(keys_->public_key.modulus.ToHex(),
            "85c31ff95150b91cf34e75bd228d73949cfd17aac3a249ba9d07d0456e1d8b0f"
            "ff3ecaff4ab5493145e38818fdfb729d10d8936e822e1daeb6c56fbdf135a367");
  auto signature = Sign(keys_->private_key, Sha256::HashString("golden wire bytes"));
  EXPECT_EQ(Hex(signature),
            "36cda725dcc1ee98f831023317538a3708b74f3bbee2515c67942256b6a59511"
            "0be5fe4edae50ca3a4178f88e2ad221da6d6f4fc0eb54d3a9858a3c74248cb54");
}

// A fault in one CRT half yields an s that is right mod q and wrong mod p;
// releasing it would hand out gcd(s^e - m, n) = q. Sign must refuse.
TEST_F(RsaTest, CorruptedCrtHalfTripsFaultCheck) {
  RsaPrivateKey faulty = keys_->private_key;
  faulty.dp = BigNum::Add(faulty.dp, BigNum(2));
  Digest digest = Sha256::HashString("fault me");
  EXPECT_DEATH(Sign(faulty, digest), "check failed");
}

TEST(RsaKeygenTest, DistinctSeedsDistinctKeys) {
  para::Random rng1(1), rng2(2);
  RsaKeyPair a = GenerateKeyPair(256, rng1);
  RsaKeyPair b = GenerateKeyPair(256, rng2);
  EXPECT_NE(a.public_key.modulus, b.public_key.modulus);
}

TEST(RsaKeygenTest, SmallKeysWork) {
  // 384 bits is the smallest modulus that fits the padded SHA-256 block.
  para::Random rng(99);
  RsaKeyPair keys = GenerateKeyPair(384, rng);
  Digest digest = Sha256::HashString("x");
  EXPECT_TRUE(Verify(keys.public_key, digest, Sign(keys.private_key, digest)).ok());
}

}  // namespace
}  // namespace para::crypto
