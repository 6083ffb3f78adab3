#include "oracle/crypto_ref.hh"

#include <cstring>

#include "crypto/drbg.hh"

namespace vg::oracle
{

using crypto::AesBlock;
using crypto::AesKey;
using crypto::BigNum;
using crypto::Digest;

// --------------------------------------------------------------------
// AES-128, FIPS 197 section 5, one byte at a time.
// --------------------------------------------------------------------

namespace
{

/** Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1 (FIPS 197 4.2). */
uint8_t
gfMul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        bool hi = a & 0x80;
        a = uint8_t(a << 1);
        if (hi)
            a ^= 0x1b;
        b >>= 1;
    }
    return p;
}

struct SBoxes
{
    uint8_t fwd[256];

    SBoxes()
    {
        for (int x = 0; x < 256; x++) {
            // Multiplicative inverse by exhaustive search (0 maps to 0).
            uint8_t b = 0;
            for (int y = 1; x && y < 256; y++) {
                if (gfMul(uint8_t(x), uint8_t(y)) == 1) {
                    b = uint8_t(y);
                    break;
                }
            }
            // Affine transform, bit by bit (FIPS 197 eq. 5.1).
            uint8_t s = 0;
            for (int i = 0; i < 8; i++) {
                int bit = ((b >> i) ^ (b >> ((i + 4) % 8)) ^
                           (b >> ((i + 5) % 8)) ^ (b >> ((i + 6) % 8)) ^
                           (b >> ((i + 7) % 8)) ^ (0x63 >> i)) &
                          1;
                s = uint8_t(s | (bit << i));
            }
            fwd[x] = s;
        }
    }
};

const SBoxes &
sboxes()
{
    static const SBoxes boxes;
    return boxes;
}

using State = uint8_t[16]; // column-major: state[r][c] is s[4 * c + r]

void
addRoundKey(State s, const std::array<uint8_t, 16> &rk)
{
    for (int i = 0; i < 16; i++)
        s[i] ^= rk[size_t(i)];
}

void
subBytes(State s, const uint8_t box[256])
{
    for (int i = 0; i < 16; i++)
        s[i] = box[s[i]];
}

/** Row r rotates left by r. */
void
shiftRows(State s)
{
    uint8_t t[16];
    for (int r = 0; r < 4; r++) {
        for (int c = 0; c < 4; c++) {
            int from = (c + r) % 4;
            t[4 * c + r] = s[4 * from + r];
        }
    }
    std::memcpy(s, t, 16);
}

/** Multiply each column by the circulant matrix with first row @p m. */
void
mixColumns(State s, const uint8_t m[4])
{
    for (int c = 0; c < 4; c++) {
        uint8_t col[4];
        std::memcpy(col, s + 4 * c, 4);
        for (int r = 0; r < 4; r++) {
            uint8_t v = 0;
            for (int k = 0; k < 4; k++)
                v ^= gfMul(m[(k - r + 4) % 4], col[k]);
            s[4 * c + r] = v;
        }
    }
}

constexpr uint8_t kMix[4] = {2, 3, 1, 1};

/** Increment the 64-bit big-endian counter in bytes 8..15. */
void
bumpCounter(uint8_t block[16])
{
    uint64_t ctr = 0;
    for (int i = 8; i < 16; i++)
        ctr = (ctr << 8) | block[i];
    ctr++;
    for (int i = 15; i >= 8; i--) {
        block[i] = uint8_t(ctr);
        ctr >>= 8;
    }
}

} // namespace

RefAes128::RefAes128(const AesKey &key)
{
    // Key expansion over 4-byte words (FIPS 197 5.2).
    const SBoxes &sb = sboxes();
    uint8_t w[44][4];
    std::memcpy(w, key.data(), 16);
    uint8_t rcon = 1;
    for (int i = 4; i < 44; i++) {
        uint8_t t[4];
        std::memcpy(t, w[i - 1], 4);
        if (i % 4 == 0) {
            uint8_t first = t[0];
            for (int j = 0; j < 3; j++)
                t[j] = sb.fwd[t[j + 1]];
            t[3] = sb.fwd[first];
            t[0] ^= rcon;
            rcon = gfMul(rcon, 2);
        }
        for (int j = 0; j < 4; j++)
            w[i][j] = uint8_t(w[i - 4][j] ^ t[j]);
    }
    for (size_t r = 0; r < 11; r++)
        std::memcpy(_roundKeys[r].data(), w[4 * r], 16);
}

void
RefAes128::encryptBlock(uint8_t block[16]) const
{
    const SBoxes &sb = sboxes();
    addRoundKey(block, _roundKeys[0]);
    for (size_t round = 1; round <= 10; round++) {
        subBytes(block, sb.fwd);
        shiftRows(block);
        if (round != 10)
            mixColumns(block, kMix);
        addRoundKey(block, _roundKeys[round]);
    }
}

std::vector<uint8_t>
RefAes128::ctrCrypt(const std::vector<uint8_t> &data,
                    const AesBlock &nonce) const
{
    std::vector<uint8_t> out(data);
    uint8_t counter[16];
    std::memcpy(counter, nonce.data(), 16);
    uint8_t ks[16];
    for (size_t i = 0; i < out.size(); i++) {
        if (i % 16 == 0) {
            std::memcpy(ks, counter, 16);
            encryptBlock(ks);
            bumpCounter(counter);
        }
        out[i] ^= ks[i % 16];
    }
    return out;
}

// --------------------------------------------------------------------
// SHA-256, FIPS 180-4 section 6.2.
// --------------------------------------------------------------------

namespace
{

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

RefSha256::RefSha256()
    : _h{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
         0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{}

void
RefSha256::compress()
{
    uint32_t w[64];
    for (int t = 0; t < 16; t++)
        w[t] = uint32_t(_block[size_t(4 * t)]) << 24 |
               uint32_t(_block[size_t(4 * t + 1)]) << 16 |
               uint32_t(_block[size_t(4 * t + 2)]) << 8 |
               uint32_t(_block[size_t(4 * t + 3)]);
    for (int t = 16; t < 64; t++) {
        uint32_t s0 =
            rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
        uint32_t s1 =
            rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
        w[t] = s1 + w[t - 7] + s0 + w[t - 16];
    }
    uint32_t v[8];
    for (int i = 0; i < 8; i++)
        v[i] = _h[size_t(i)];
    for (int t = 0; t < 64; t++) {
        uint32_t a = v[0], e = v[4];
        uint32_t t1 = v[7] + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                      ((e & v[5]) ^ (~e & v[6])) + kK[t] + w[t];
        uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                      ((a & v[1]) ^ (a & v[2]) ^ (v[1] & v[2]));
        for (int i = 7; i > 0; i--)
            v[i] = v[i - 1];
        v[4] += t1;
        v[0] = t1 + t2;
    }
    for (int i = 0; i < 8; i++)
        _h[size_t(i)] += v[i];
}

void
RefSha256::update(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; i++) {
        _block[_fill++] = p[i];
        _bytes++;
        if (_fill == 64) {
            compress();
            _fill = 0;
        }
    }
}

Digest
RefSha256::final()
{
    uint64_t bits = _bytes * 8;
    uint8_t one = 0x80, zero = 0;
    update(&one, 1);
    while (_fill != 56)
        update(&zero, 1);
    for (int i = 7; i >= 0; i--) {
        uint8_t b = uint8_t(bits >> (8 * i));
        update(&b, 1);
    }
    Digest out;
    for (size_t i = 0; i < 32; i++)
        out[i] = uint8_t(_h[i / 4] >> (24 - 8 * (i % 4)));
    *this = RefSha256();
    return out;
}

Digest
refSha256(const void *data, size_t len)
{
    RefSha256 h;
    h.update(data, len);
    return h.final();
}

Digest
refSha256(const std::vector<uint8_t> &data)
{
    return refSha256(data.data(), data.size());
}

// --------------------------------------------------------------------
// HMAC-SHA256 (RFC 2104) and sealing.
// --------------------------------------------------------------------

Digest
refHmacSha256(const std::vector<uint8_t> &key, const void *data,
              size_t len)
{
    std::vector<uint8_t> k = key;
    if (k.size() > 64) {
        Digest kd = refSha256(k);
        k.assign(kd.begin(), kd.end());
    }
    k.resize(64, 0);

    std::vector<uint8_t> inner;
    for (uint8_t b : k)
        inner.push_back(uint8_t(b ^ 0x36));
    const uint8_t *p = static_cast<const uint8_t *>(data);
    inner.insert(inner.end(), p, p + len);
    Digest ih = refSha256(inner);

    std::vector<uint8_t> outer;
    for (uint8_t b : k)
        outer.push_back(uint8_t(b ^ 0x5c));
    outer.insert(outer.end(), ih.begin(), ih.end());
    return refSha256(outer);
}

Digest
refHmacSha256(const std::vector<uint8_t> &key,
              const std::vector<uint8_t> &data)
{
    return refHmacSha256(key, data.data(), data.size());
}

namespace
{

/** SHA-256(label || master): the seal KDF. */
Digest
deriveSubkey(const char *label, const AesKey &master)
{
    std::vector<uint8_t> in(label, label + std::strlen(label));
    in.insert(in.end(), master.begin(), master.end());
    return refSha256(in);
}

/** Tag over aad || nonce || ciphertext under the derived MAC key. */
Digest
sealTag(const AesKey &master, const crypto::SealedBlob &blob,
        const std::vector<uint8_t> &aad)
{
    Digest mk = deriveSubkey("vg-seal-mac", master);
    std::vector<uint8_t> msg(aad);
    msg.insert(msg.end(), blob.nonce.begin(), blob.nonce.end());
    msg.insert(msg.end(), blob.ciphertext.begin(), blob.ciphertext.end());
    return refHmacSha256(std::vector<uint8_t>(mk.begin(), mk.end()), msg);
}

RefAes128
sealCipher(const AesKey &master)
{
    Digest ek = deriveSubkey("vg-seal-enc", master);
    AesKey k;
    std::memcpy(k.data(), ek.data(), k.size());
    return RefAes128(k);
}

} // namespace

crypto::SealedBlob
refSeal(const AesKey &key, crypto::CtrDrbg &rng,
        const std::vector<uint8_t> &plain, const std::vector<uint8_t> &aad)
{
    crypto::SealedBlob blob;
    rng.generate(blob.nonce.data(), blob.nonce.size());
    blob.ciphertext = sealCipher(key).ctrCrypt(plain, blob.nonce);
    blob.mac = sealTag(key, blob, aad);
    return blob;
}

std::vector<uint8_t>
refUnseal(const AesKey &key, const crypto::SealedBlob &blob, bool &ok,
          const std::vector<uint8_t> &aad)
{
    ok = sealTag(key, blob, aad) == blob.mac;
    if (!ok)
        return {};
    return sealCipher(key).ctrCrypt(blob.ciphertext, blob.nonce);
}

// --------------------------------------------------------------------
// Modular exponentiation and RSA.
// --------------------------------------------------------------------

BigNum
refModExp(const BigNum &base, const BigNum &exp, const BigNum &mod)
{
    BigNum result = BigNum(1) % mod;
    BigNum b = base % mod;
    for (size_t i = 0; i < exp.bitLength(); i++) {
        if (exp.bit(i))
            result = (result * b) % mod;
        b = (b * b) % mod;
    }
    return result;
}

namespace
{

/** 00 || 01 || ff.. || 00 || SHA-256(message), @p k bytes. */
std::vector<uint8_t>
signaturePad(const std::vector<uint8_t> &message, size_t k)
{
    Digest h = refSha256(message);
    std::vector<uint8_t> eb(k - h.size(), 0xff);
    eb[0] = 0x00;
    eb[1] = 0x01;
    eb.back() = 0x00;
    eb.insert(eb.end(), h.begin(), h.end());
    return eb;
}

} // namespace

std::vector<uint8_t>
refRsaEncrypt(const crypto::RsaPublicKey &key, crypto::CtrDrbg &rng,
              const std::vector<uint8_t> &message)
{
    size_t k = key.modulusBytes();
    // 00 || 02 || nonzero random bytes || 00 || message
    std::vector<uint8_t> eb = {0x00, 0x02};
    while (eb.size() < k - message.size() - 1) {
        uint8_t b = 0;
        rng.generate(&b, 1);
        if (b != 0)
            eb.push_back(b);
    }
    eb.push_back(0x00);
    eb.insert(eb.end(), message.begin(), message.end());
    return refModExp(BigNum::fromBytes(eb), key.e, key.n).toBytesPadded(k);
}

std::vector<uint8_t>
refRsaDecrypt(const crypto::RsaPrivateKey &key,
              const std::vector<uint8_t> &cipher, bool &ok)
{
    ok = false;
    size_t k = key.publicKey().modulusBytes();
    BigNum c = BigNum::fromBytes(cipher);
    if (cipher.size() != k || c >= key.n)
        return {};
    std::vector<uint8_t> eb = refModExp(c, key.d, key.n).toBytesPadded(k);
    if (eb[0] != 0x00 || eb[1] != 0x02)
        return {};
    size_t sep = 2;
    while (sep < k && eb[sep] != 0x00)
        sep++;
    // At least eight padding bytes before the separator.
    if (sep == k || sep < 10)
        return {};
    ok = true;
    return std::vector<uint8_t>(eb.begin() + long(sep) + 1, eb.end());
}

std::vector<uint8_t>
refRsaSign(const crypto::RsaPrivateKey &key,
           const std::vector<uint8_t> &message)
{
    size_t k = key.publicKey().modulusBytes();
    BigNum m = BigNum::fromBytes(signaturePad(message, k));
    return refModExp(m, key.d, key.n).toBytesPadded(k);
}

bool
refRsaVerify(const crypto::RsaPublicKey &key,
             const std::vector<uint8_t> &message,
             const std::vector<uint8_t> &signature)
{
    size_t k = key.modulusBytes();
    BigNum s = BigNum::fromBytes(signature);
    if (signature.size() != k || s >= key.n)
        return false;
    return refModExp(s, key.e, key.n).toBytesPadded(k) ==
           signaturePad(message, k);
}

} // namespace vg::oracle
