/**
 * @file
 * Demand-zero host storage for simulated RAM and disks.
 *
 * A machine's RAM and SSD are large (tens to hundreds of MB) but a run
 * touches a small part of them. The bytes come from calloc(), which
 * for allocations this size hands back fresh anonymous pages the host
 * kernel zero-fills on first touch, so creating and destroying a
 * machine no longer pays to fill and free memory it never uses. Reads
 * of untouched storage still return zero, exactly as an eagerly
 * zeroed array would.
 */

#ifndef VG_HW_ZEROED_HH
#define VG_HW_ZEROED_HH

#include <cstdint>
#include <cstdlib>

#include "sim/log.hh"

namespace vg::hw
{

/** A fixed-size, zero-initialised, non-copyable byte array. */
class ZeroedBytes
{
  public:
    /** @p count elements of @p unit bytes each, all zero. */
    ZeroedBytes(uint64_t count, uint64_t unit)
        : _bytes(static_cast<uint8_t *>(std::calloc(count, unit))),
          _size(count * unit)
    {
        if (!_bytes)
            sim::fatal("cannot allocate %lu x %lu bytes of storage",
                       (unsigned long)count, (unsigned long)unit);
    }

    ~ZeroedBytes() { std::free(_bytes); }

    ZeroedBytes(const ZeroedBytes &) = delete;
    ZeroedBytes &operator=(const ZeroedBytes &) = delete;

    uint64_t size() const { return _size; }

    uint8_t &operator[](uint64_t i) { return _bytes[i]; }
    const uint8_t &operator[](uint64_t i) const { return _bytes[i]; }

  private:
    uint8_t *_bytes;
    uint64_t _size;
};

} // namespace vg::hw

#endif // VG_HW_ZEROED_HH
