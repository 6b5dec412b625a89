// Parametric models of mobile-device audio hardware underwater.
//
// The paper's Fig. 3 shows that speaker/microphone frequency responses vary
// across devices, exhibit deep notches that move with device and location,
// and roll off above 4 kHz. We model each device with separate speaker and
// microphone magnitude responses (smooth band edges plus device-specific
// notches drawn from a per-device seed) and with physically separated
// speaker/mic positions, which is what breaks forward/backward reciprocity
// underwater (Fig. 3d): the two directions sample different multipath.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/types.h"

namespace aqua::channel {

/// The device models evaluated in the paper.
enum class DeviceModel {
  kGalaxyS9,
  kPixel4,
  kOnePlus8Pro,
  kGalaxyWatch4,
};

/// Waterproof enclosure types from the paper's experiments.
enum class CaseType {
  kNone,         ///< bare device (characterization only)
  kSoftPouch,    ///< thin PVC pouch: ~2 dB broadband insertion loss
  kHardCase,     ///< polycarbonate diving case (Fig. 11): ~8 dB loss
};

/// One spectral notch in a transducer response.
struct Notch {
  double center_hz = 0.0;
  double depth_db = 0.0;   ///< positive number of dB of attenuation
  double width_hz = 0.0;   ///< -3 dB-ish width
};

/// Frequency response + physical layout of one device's audio hardware.
class DeviceProfile {
 public:
  /// Builds the profile for a device model. `unit_seed` differentiates two
  /// physical units of the same model (small manufacturing spread).
  DeviceProfile(DeviceModel model, std::uint64_t unit_seed = 0,
                CaseType case_type = CaseType::kSoftPouch);

  /// Speaker (transmit) magnitude response at `freq_hz`, linear amplitude.
  /// The deep notches only appear when `immersed` (they arise from the
  /// transducer-case-water coupling); in air the response is smooth, which
  /// is why the paper's Fig. 3c shows near-reciprocal in-air responses
  /// while Fig. 3d underwater does not.
  double speaker_gain(double freq_hz, bool immersed = true) const;

  /// Microphone (receive) magnitude response at `freq_hz`, linear amplitude.
  double mic_gain(double freq_hz, bool immersed = true) const;

  /// Additional amplitude factor for a transmitter rotated `azimuth_deg`
  /// away from facing the receiver (Fig. 15: body shadowing grows with
  /// angle and is stronger at high frequency).
  double orientation_gain(double azimuth_deg, double freq_hz) const;

  /// Vertical offset of the speaker from the device center (m). The speaker
  /// and mic sit at different spots on the chassis, so the forward and
  /// backward acoustic paths are not geometrically identical.
  double speaker_offset_m() const { return speaker_offset_m_; }
  double mic_offset_m() const { return mic_offset_m_; }

  /// Maximum transmit amplitude (device loudness differences; S9 ~ 1.0).
  double tx_level() const { return tx_level_; }

  DeviceModel model() const { return model_; }
  CaseType case_type() const { return case_type_; }

  /// Identity: the profile is a pure function of (model, unit seed, case),
  /// so two profiles built from the same triple are the same device.
  friend bool operator==(const DeviceProfile& a, const DeviceProfile& b) {
    return a.model_ == b.model_ && a.unit_seed_ == b.unit_seed_ &&
           a.case_type_ == b.case_type_;
  }

  /// Human-readable model name.
  std::string name() const;

  /// Samples the full transmit (or receive) response on n/2+1 bins up to
  /// Nyquist — used to build FIR realizations of the response.
  std::vector<double> sample_response(bool speaker, std::size_t n,
                                      double sample_rate_hz,
                                      bool immersed = true) const;

 private:
  double case_gain(double freq_hz) const;
  static double notch_gain(const std::vector<Notch>& notches, double freq_hz);

  DeviceModel model_;
  std::uint64_t unit_seed_;
  CaseType case_type_;
  double tx_level_ = 1.0;
  double speaker_offset_m_ = 0.05;
  double mic_offset_m_ = -0.06;
  double lo_edge_hz_ = 400.0;    ///< low-frequency roll-on corner
  double hi_edge_hz_ = 4000.0;   ///< high-frequency roll-off corner
  double hi_slope_ = 3.0;        ///< roll-off steepness above hi_edge
  std::vector<Notch> speaker_notches_;
  std::vector<Notch> mic_notches_;
};

}  // namespace aqua::channel
