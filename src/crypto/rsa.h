// RSA signatures (from-scratch), the public-key half of the certification
// service. Signing uses PKCS#1-v1.5-style padding over a SHA-256 digest:
//   00 01 FF..FF 00 <marker> <digest>
// Key sizes are configurable; tests use 512-bit keys for speed, the
// certification benchmarks use 1024-bit keys.
#ifndef PARAMECIUM_SRC_CRYPTO_RSA_H_
#define PARAMECIUM_SRC_CRYPTO_RSA_H_

#include <cstdint>
#include <vector>

#include "src/base/random.h"
#include "src/base/status.h"
#include "src/crypto/bignum.h"
#include "src/crypto/sha256.h"

namespace para::crypto {

struct RsaPublicKey {
  BigNum modulus;   // n
  BigNum exponent;  // e
  size_t modulus_bytes() const { return (modulus.bit_length() + 7) / 8; }

  // Stable identity of a key: SHA-256 over (n || e). Certificates chain on
  // key identities.
  Digest Fingerprint() const;
};

// The CRT form of the private key (PKCS#1's p, q, dP, dQ, qInv). Sign works
// mod p and mod q separately and recombines with Garner's formula, then
// checks s^e == m mod n before releasing s: a fault in one half would
// otherwise leak a factor of n (Boneh-DeMillo-Lipton). d itself is not kept.
struct RsaPrivateKey {
  BigNum modulus;          // n = p * q
  BigNum public_exponent;  // e, for the fault check
  BigNum p;
  BigNum q;
  BigNum dp;    // d mod (p - 1)
  BigNum dq;    // d mod (q - 1)
  BigNum qinv;  // q^-1 mod p
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

// Generates a key pair with `bits`-bit modulus (p, q each bits/2).
RsaKeyPair GenerateKeyPair(size_t bits, para::Random& rng);

// Signs a SHA-256 digest. The signature is modulus_bytes() long. Panics if
// the CRT result fails the s^e == m check (a corrupted key half).
std::vector<uint8_t> Sign(const RsaPrivateKey& key, const Digest& digest);

// Verifies a signature over `digest`. Status is kCertificateInvalid on any
// mismatch (wrong key, tampered message, malformed padding).
para::Status Verify(const RsaPublicKey& key, const Digest& digest,
                    std::span<const uint8_t> signature);

}  // namespace para::crypto

#endif  // PARAMECIUM_SRC_CRYPTO_RSA_H_
