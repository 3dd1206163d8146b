// Lightweight contract checking used across the project.
//
// Public API entry points validate their preconditions with `ensure` /
// `ensure_positive` / `ensure_finite` (these throw std::invalid_argument so
// misuse is reported to callers), while internal invariants use plain
// assert. This follows the Core Guidelines split between interface
// contracts (I.5/I.6) and implementation assertions.
//
// A check is free when it passes. The helpers take the message as a
// std::string_view and build the std::string only on the throwing path, so
// a passing check with a literal message never touches the heap. Messages
// on per-solve, per-iteration or per-step paths must not be formatted
// eagerly either (no `"..." + std::to_string(x)` argument): format them
// inside an `if (!condition)` branch instead. tests/alloc_test.cpp counts
// heap allocations of a channel solve and a cosim run and enforces this.
#ifndef BRIGHTSI_NUMERICS_CONTRACTS_H
#define BRIGHTSI_NUMERICS_CONTRACTS_H

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

namespace brightsi {

/// Throws std::invalid_argument with `message` when `condition` is false.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    throw std::invalid_argument(std::string(message));
  }
}

/// Requires `value > 0` (and finite); `name` identifies the offending parameter.
inline void ensure_positive(double value, std::string_view name) {
  if (!(value > 0.0) || !std::isfinite(value)) [[unlikely]] {
    throw std::invalid_argument(std::string(name) + " must be positive and finite, got " +
                                std::to_string(value));
  }
}

/// Requires `value >= 0` (and finite).
inline void ensure_non_negative(double value, std::string_view name) {
  if (value < 0.0 || !std::isfinite(value)) [[unlikely]] {
    throw std::invalid_argument(std::string(name) +
                                " must be non-negative and finite, got " +
                                std::to_string(value));
  }
}

/// Requires a finite value (rejects NaN and infinities).
inline void ensure_finite(double value, std::string_view name) {
  if (!std::isfinite(value)) [[unlikely]] {
    throw std::invalid_argument(std::string(name) + " must be finite, got " +
                                std::to_string(value));
  }
}

}  // namespace brightsi

#endif  // BRIGHTSI_NUMERICS_CONTRACTS_H
