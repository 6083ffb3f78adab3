/**
 * @file
 * RSA public-key encryption and signatures.
 *
 * Virtual Ghost maintains a public/private key pair per installed
 * system (S 3.3): the private key is sealed by the TPM storage key, the
 * public key signs application binaries and encrypts the per-application
 * key section. We implement key generation (Miller-Rabin), PKCS#1-v1.5
 * style encryption padding, and hash-then-sign signatures.
 *
 * All four operations run on BigNum::modExp (Montgomery for the odd
 * RSA moduli). The private-key operations (sign, decrypt) use the CRT:
 * two half-width exponentiations mod p and q with the exponents
 * d mod (p-1), d mod (q-1), recombined by Garner's formula. The test
 * oracle (tests/oracle/crypto_ref.hh) redoes all four with the full
 * exponent d over a plain square-and-multiply ladder, and
 * CryptoFastSweep checks that both give the same bytes.
 */

#ifndef VG_CRYPTO_RSA_HH
#define VG_CRYPTO_RSA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bignum.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/**
 * The smallest modulus, in bytes, that the key parsers accept: a
 * SHA-256 signature needs 32 digest bytes plus 11 bytes of padding.
 * A parsed key thus always holds a signature, and rsaEncrypt() of any
 * message up to 32 bytes (an AES session key), so neither reaches its
 * sim::fatal size check.
 */
constexpr size_t kRsaMinModulusBytes = 43;

/** An RSA public key (n, e). */
struct RsaPublicKey
{
    BigNum n;
    BigNum e;

    /** Modulus size in bytes. */
    size_t modulusBytes() const { return (n.bitLength() + 7) / 8; }

    std::vector<uint8_t> serialize() const;

    /**
     * Parse a serialized key. @p ok is false on truncation and on a
     * modulus shorter than kRsaMinModulusBytes: the hostile OS can
     * hand sshd any public key file.
     */
    static RsaPublicKey deserialize(const std::vector<uint8_t> &bytes,
                                    bool &ok);
};

/** An RSA private key (n, e, d, p, q) with its CRT parameters. */
struct RsaPrivateKey
{
    BigNum n;
    BigNum e;
    BigNum d;
    BigNum p;
    BigNum q;

    /**
     * CRT parameters d mod (p-1), d mod (q-1) and q^-1 mod p. Derived
     * from the fields above by rsaGenerate() and deserialize(), never
     * serialized: the serialized form (sealed VM key, ssh key files)
     * is simulated state and keeps its five-field layout.
     */
    BigNum dp;
    BigNum dq;
    BigNum qinv;

    RsaPublicKey publicKey() const { return {n, e}; }

    std::vector<uint8_t> serialize() const;

    /**
     * Parse a serialized key and derive its CRT parameters. @p ok is
     * false on truncation, on a modulus shorter than
     * kRsaMinModulusBytes, and on inconsistent factors (p <= 1,
     * q <= 1, p*q != n, or q not invertible mod p), which the hostile
     * OS can hand an application through a key file.
     */
    static RsaPrivateKey deserialize(const std::vector<uint8_t> &bytes,
                                     bool &ok);
};

/** Generate an RSA key pair with an @p bits-bit modulus. */
RsaPrivateKey rsaGenerate(CtrDrbg &rng, size_t bits);

/**
 * The raw private-key operation x^d mod n, computed by the CRT. @p key
 * must carry its CRT parameters (see RsaPrivateKey::dp).
 */
BigNum rsaPrivateOp(const RsaPrivateKey &key, const BigNum &x);

/**
 * Encrypt a short message (<= modulusBytes - 11) under @p key.
 * Uses PKCS#1 v1.5-style type-2 random padding.
 */
std::vector<uint8_t> rsaEncrypt(const RsaPublicKey &key, CtrDrbg &rng,
                                const std::vector<uint8_t> &message);

/** Decrypt; @p ok is false on padding or length failure. */
std::vector<uint8_t> rsaDecrypt(const RsaPrivateKey &key,
                                const std::vector<uint8_t> &cipher,
                                bool &ok);

/** Sign SHA-256(@p message) with the private key. */
std::vector<uint8_t> rsaSign(const RsaPrivateKey &key,
                             const std::vector<uint8_t> &message);

/** Verify a signature produced by rsaSign(). */
bool rsaVerify(const RsaPublicKey &key, const std::vector<uint8_t> &message,
               const std::vector<uint8_t> &signature);

} // namespace vg::crypto

#endif // VG_CRYPTO_RSA_HH
