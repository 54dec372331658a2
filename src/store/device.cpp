#include "store/device.hpp"

#include <algorithm>

namespace rtpb::store {

bool SimStorageDevice::append(std::span<const std::uint8_t> data) {
  if (failed_) return false;
  if (crash_after_ != kNoCrash && data.size() > crash_after_) {
    // The crash point lands inside this append: a torn prefix reaches the
    // medium, then the device dies.
    bytes_.insert(bytes_.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(crash_after_));
    crash_after_ = 0;
    failed_ = true;
    ++torn_appends_;
    return false;
  }
  bytes_.insert(bytes_.end(), data.begin(), data.end());
  if (crash_after_ != kNoCrash) crash_after_ -= data.size();
  ++appends_;
  return true;
}

void SimStorageDevice::tear_tail(std::size_t n) {
  bytes_.resize(bytes_.size() - std::min(n, bytes_.size()));
}

void SimStorageDevice::corrupt_byte(std::size_t offset) {
  if (offset < bytes_.size()) bytes_[offset] ^= 0x40;
}

}  // namespace rtpb::store
