/**
 * @file
 * Authenticated encryption ("sealing") built from AES-CTR + HMAC-SHA256
 * in an encrypt-then-MAC construction.
 *
 * Reused in three places that the paper describes separately:
 *  - the TPM seals the Virtual Ghost private key (S 4.4),
 *  - the VG VM encrypts+MACs ghost pages before swap-out (S 3.3),
 *  - applications protect file data written through the hostile OS
 *    (S 3.3, encrypted checksum scheme).
 *
 * The derive-every-call reference construction lives in the test
 * oracle (tests/oracle/crypto_ref.hh); CryptoFastSweep checks that
 * both produce byte-identical blobs.
 */

#ifndef VG_CRYPTO_SEALED_HH
#define VG_CRYPTO_SEALED_HH

#include <cstdint>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/** A sealed (encrypted and authenticated) blob. */
struct SealedBlob
{
    AesBlock nonce{};
    std::vector<uint8_t> ciphertext;
    Digest mac{};

    /** Flat wire format: nonce || mac || ciphertext. */
    std::vector<uint8_t> serialize() const;
    static SealedBlob deserialize(const std::vector<uint8_t> &bytes,
                                  bool &ok);
};

/**
 * Seal @p plain under @p key with a fresh random nonce.
 *
 * @param aad optional associated data bound into the MAC (e.g. a page's
 *            virtual address for swap, so pages cannot be swapped back
 *            to the wrong location).
 *
 * The two derived subkeys (cipher and MAC) and their schedules are
 * cached per master key, so repeated seals under one key pay the key
 * derivation once.
 */
SealedBlob seal(const AesKey &key, CtrDrbg &rng,
                const std::vector<uint8_t> &plain,
                const std::vector<uint8_t> &aad = {});

/** One element of a sealBatch() call: plaintext plus the associated
 *  data bound into its MAC. */
struct SealInput
{
    std::vector<uint8_t> plain;
    std::vector<uint8_t> aad;
};

/**
 * Seal a batch of plaintexts under one key in a scatter-gather
 * pipeline: the cached subkey schedules are looked up once for the
 * whole batch. Nonces are drawn from @p rng in batch order, so the
 * output is bit-identical to calling seal() on each element in
 * sequence.
 */
std::vector<SealedBlob> sealBatch(const AesKey &key, CtrDrbg &rng,
                                  const std::vector<SealInput> &batch);

/**
 * Verify and decrypt a sealed blob.
 * @param ok false if the MAC (over aad || nonce || ciphertext) fails.
 */
std::vector<uint8_t> unseal(const AesKey &key, const SealedBlob &blob,
                            bool &ok,
                            const std::vector<uint8_t> &aad = {});

} // namespace vg::crypto

#endif // VG_CRYPTO_SEALED_HH
