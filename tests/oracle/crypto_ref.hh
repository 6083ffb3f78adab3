/**
 * @file
 * Reference crypto oracle for the tests and bench_micro.
 *
 * Textbook, deliberately slow implementations of every primitive the
 * trusted layer uses, written straight from the standards:
 *  - AES-128 (FIPS 197): byte-wise SubBytes/ShiftRows/MixColumns
 *    rounds, its own key expansion and an S-box found by searching
 *    GF(2^8) for each inverse;
 *  - SHA-256 (FIPS 180-4): the rotating 64-round loop and
 *    byte-at-a-time padding;
 *  - HMAC-SHA256 (RFC 2104): concatenate the padded key and the
 *    message, then hash;
 *  - sealing: derive both subkeys on every call, then AES-CTR and a
 *    concatenate-then-HMAC tag over aad || nonce || ciphertext;
 *  - modular exponentiation: binary square-and-multiply over BigNum's
 *    public arithmetic, and RSA padding/sign/verify/encrypt/decrypt
 *    on top of it.
 *
 * The oracle shares no code with src/crypto/ beyond its public types
 * (AesKey, AesBlock, Digest, SealedBlob, BigNum, the RSA key structs
 * and CtrDrbg as a nonce source). The known-answer tests pin it to the
 * standards' vectors, and CryptoFastSweep checks that the production
 * crypto produces the same bytes.
 */

#ifndef VG_TESTS_ORACLE_CRYPTO_REF_HH
#define VG_TESTS_ORACLE_CRYPTO_REF_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/bignum.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "crypto/sha256.hh"

namespace vg::oracle
{

/** Byte-oriented FIPS 197 AES-128 encryption with CTR mode. */
class RefAes128
{
  public:
    explicit RefAes128(const crypto::AesKey &key);

    void encryptBlock(uint8_t block[16]) const;

    /** CTR keystream XOR, one block at a time. */
    std::vector<uint8_t> ctrCrypt(const std::vector<uint8_t> &data,
                                  const crypto::AesBlock &nonce) const;

  private:
    /** 11 round keys of 16 bytes, in state (column-major) order. */
    std::array<std::array<uint8_t, 16>, 11> _roundKeys;
};

/** Incremental SHA-256 that pads one byte at a time. */
class RefSha256
{
  public:
    RefSha256();

    void update(const void *data, size_t len);
    crypto::Digest final();

  private:
    void compress();

    std::array<uint32_t, 8> _h;
    std::array<uint8_t, 64> _block;
    size_t _fill = 0;
    uint64_t _bytes = 0;
};

/** One-shot SHA-256. */
crypto::Digest refSha256(const void *data, size_t len);
crypto::Digest refSha256(const std::vector<uint8_t> &data);

/** HMAC-SHA256 by concatenation: H(K^opad || H(K^ipad || msg)). */
crypto::Digest refHmacSha256(const std::vector<uint8_t> &key,
                             const void *data, size_t len);
crypto::Digest refHmacSha256(const std::vector<uint8_t> &key,
                             const std::vector<uint8_t> &data);

/** Seal with subkeys derived afresh; nonce drawn from @p rng. */
crypto::SealedBlob refSeal(const crypto::AesKey &key, crypto::CtrDrbg &rng,
                           const std::vector<uint8_t> &plain,
                           const std::vector<uint8_t> &aad = {});

/** Verify and decrypt; @p ok is false when the tag does not match. */
std::vector<uint8_t> refUnseal(const crypto::AesKey &key,
                               const crypto::SealedBlob &blob, bool &ok,
                               const std::vector<uint8_t> &aad = {});

/** base^exp mod mod by binary square-and-multiply (mod != 0). */
crypto::BigNum refModExp(const crypto::BigNum &base,
                         const crypto::BigNum &exp,
                         const crypto::BigNum &mod);

/** RSA with the same paddings as src/crypto/rsa.hh, over refModExp. */
std::vector<uint8_t> refRsaEncrypt(const crypto::RsaPublicKey &key,
                                   crypto::CtrDrbg &rng,
                                   const std::vector<uint8_t> &message);
std::vector<uint8_t> refRsaDecrypt(const crypto::RsaPrivateKey &key,
                                   const std::vector<uint8_t> &cipher,
                                   bool &ok);
std::vector<uint8_t> refRsaSign(const crypto::RsaPrivateKey &key,
                                const std::vector<uint8_t> &message);
bool refRsaVerify(const crypto::RsaPublicKey &key,
                  const std::vector<uint8_t> &message,
                  const std::vector<uint8_t> &signature);

} // namespace vg::oracle

#endif // VG_TESTS_ORACLE_CRYPTO_REF_HH
