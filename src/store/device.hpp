// Pluggable storage-device seam for the durability subsystem.
//
// A StorageDevice is the minimal append-only abstraction a write-ahead
// log needs: append bytes, read everything back, truncate.  The simulated
// implementation models the failure envelope ALICE-style crash testing
// cares about — the device can be killed at ANY byte boundary (a crash
// mid-write leaves a torn prefix of the record on "disk"), an already
// written tail can be torn off (a sector that never made it out of the
// drive cache), and individual bytes can rot.  All injection is explicit
// and deterministic: no RNG, no simulator events — attaching a device to
// a replica cannot shift a trace digest by itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rtpb::store {

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Append `data` atomically-or-torn: on success all bytes are durable
  /// and true is returned; on a device failure a PREFIX of the bytes may
  /// have reached the medium and false is returned.  A failed append
  /// leaves the device dead (every later append fails) until the hosting
  /// machine "power-cycles" it via clear_failure().
  virtual bool append(std::span<const std::uint8_t> data) = 0;

  /// The full persisted contents, first byte to last.
  [[nodiscard]] virtual std::span<const std::uint8_t> contents() const = 0;

  /// Discard all contents (used after a successful checkpoint).
  virtual void truncate() = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True once an append has failed; cleared by clear_failure().
  [[nodiscard]] virtual bool failed() const = 0;

  /// Restore the device to working order (restart / power-cycle).  The
  /// contents — including any torn prefix — survive.
  virtual void clear_failure() = 0;
};

/// In-memory simulated device with deterministic fault injection.
class SimStorageDevice final : public StorageDevice {
 public:
  bool append(std::span<const std::uint8_t> data) override;
  [[nodiscard]] std::span<const std::uint8_t> contents() const override { return bytes_; }
  void truncate() override { bytes_.clear(); }
  [[nodiscard]] std::size_t size() const override { return bytes_.size(); }
  [[nodiscard]] bool failed() const override { return failed_; }
  void clear_failure() override {
    failed_ = false;
    crash_after_ = kNoCrash;
  }

  // ---- deterministic fault injection (ALICE-style crash points) ----

  /// Kill the device after `budget` MORE bytes reach the medium: the
  /// append in flight when the budget runs out writes exactly the
  /// remaining budget (a torn record prefix) and fails.  budget == 0
  /// fails the very next append before any byte lands.
  void arm_crash_after(std::size_t budget) { crash_after_ = budget; }

  /// Tear the last `n` bytes off the medium — a tail that never left the
  /// drive cache before the power went out.
  void tear_tail(std::size_t n);

  /// Flip one bit of a persisted byte (bit-rot / corruption on the
  /// medium).  Out-of-range offsets are ignored.
  void corrupt_byte(std::size_t offset);

  // ---- plain statistics (read by telemetry, never the other way) ----
  [[nodiscard]] std::uint64_t appends() const { return appends_; }
  [[nodiscard]] std::uint64_t torn_appends() const { return torn_appends_; }

 private:
  static constexpr std::size_t kNoCrash = static_cast<std::size_t>(-1);

  std::vector<std::uint8_t> bytes_;
  std::size_t crash_after_ = kNoCrash;
  bool failed_ = false;
  std::uint64_t appends_ = 0;
  std::uint64_t torn_appends_ = 0;
};

}  // namespace rtpb::store
