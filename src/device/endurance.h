// Endurance (write wear) accounting for SM devices.
//
// Paper §3: endurance translates to a minimum model-update interval —
// UpdateInterval = 365 * ModelSize / (pDWPD * SMCapacity). The tracker
// records bytes written and answers "how often can this model be refreshed
// without exceeding the drive's DWPD rating".
#pragma once

#include <cstdint>

#include "common/types.h"

namespace sdm {

class WearTracker {
 public:
  /// `rated_capacity` is the device's nominal capacity; `dwpd` its rated
  /// Physical Drive Writes Per Day (<= 0 means unlimited endurance).
  WearTracker(Bytes rated_capacity, double dwpd)
      : rated_capacity_(rated_capacity), dwpd_(dwpd) {}

  void RecordWrite(Bytes bytes) { bytes_written_ += bytes; }

  [[nodiscard]] Bytes bytes_written() const { return bytes_written_; }

  /// Full-drive writes consumed so far.
  [[nodiscard]] double DriveWrites() const {
    return rated_capacity_ == 0
               ? 0.0
               : static_cast<double>(bytes_written_) / static_cast<double>(rated_capacity_);
  }

  /// Whether a workload writing `model_size` every `interval_minutes` stays
  /// within the DWPD rating.
  [[nodiscard]] bool SustainsUpdateInterval(Bytes model_size, double interval_minutes) const;

  /// Minimum update interval (minutes) the rating allows for a model of the
  /// given size. Returns 0 when endurance is unlimited.
  [[nodiscard]] double MinUpdateIntervalMinutes(Bytes model_size) const;

  /// Paper §3 formula verbatim: 365 * ModelSize / (pDWPD * SMCapacity) —
  /// update interval expressed in days assuming one update consumes
  /// ModelSize of writes and the drive budget is spread over a year.
  [[nodiscard]] double UpdateIntervalPaperFormulaDays(Bytes model_size) const;

  [[nodiscard]] double dwpd() const { return dwpd_; }

 private:
  Bytes rated_capacity_;
  double dwpd_;
  Bytes bytes_written_ = 0;
};

}  // namespace sdm
