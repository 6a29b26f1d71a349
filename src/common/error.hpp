// Error handling for the PCNNA library.
//
// Construction/configuration errors throw `pcnna::Error` (invalid layer
// shapes, infeasible hardware configs, calibration failures). Hot-path code
// uses PCNNA_DCHECK which compiles out in release builds.
#pragma once

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pcnna {

/// Exception type thrown for invalid configurations and violated contracts.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "PCNNA_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

template <class T>
[[noreturn]] void throw_field_failure(const char* path, const char* field,
                                      const T& value, const char* rule) {
  std::ostringstream os;
  if (*path) os << path << '.';
  os << field << " = " << value << " must be " << rule;
  throw Error(os.str());
}

template <class T>
bool is_plus_inf(const T& value) {
  if constexpr (std::is_floating_point_v<T>)
    return value == std::numeric_limits<T>::infinity();
  else
    return false;
}
} // namespace detail

} // namespace pcnna

/// Always-on invariant check; throws pcnna::Error on failure.
#define PCNNA_CHECK(expr)                                                     \
  do {                                                                        \
    if (!(expr))                                                              \
      ::pcnna::detail::throw_check_failure(#expr, __FILE__, __LINE__, "");    \
  } while (false)

/// Always-on invariant check with a streamed message.
#define PCNNA_CHECK_MSG(expr, msg)                                            \
  do {                                                                        \
    if (!(expr)) {                                                            \
      std::ostringstream pcnna_check_os_;                                     \
      pcnna_check_os_ << msg;                                                 \
      ::pcnna::detail::throw_check_failure(#expr, __FILE__, __LINE__,         \
                                           pcnna_check_os_.str());            \
    }                                                                         \
  } while (false)

/// Config-field check: unless `ok`, throws pcnna::Error naming the field
/// under `path` with its value ("bank.ring.q_factor = 0.5 must be > 1"); an
/// empty `path` is PcnnaConfig's top level. A field that passes `ok` at
/// +inf is rejected too ("fast_clock = inf must be finite"), unless it is
/// checked with PCNNA_CHECK_FIELD_OR_INF. Formats nothing on success.
#define PCNNA_CHECK_FIELD(path, field, ok, rule)                              \
  do {                                                                        \
    PCNNA_CHECK_FIELD_OR_INF(path, field, ok, rule);                          \
    if (::pcnna::detail::is_plus_inf(field))                                  \
      ::pcnna::detail::throw_field_failure(path, #field, field, "finite");    \
  } while (false)

/// PCNNA_CHECK_FIELD for a field whose +inf is a deliberate idealization
/// (docs/configuration.md lists them).
#define PCNNA_CHECK_FIELD_OR_INF(path, field, ok, rule)                       \
  do {                                                                        \
    if (!(ok))                                                                \
      ::pcnna::detail::throw_field_failure(path, #field, field, rule);        \
  } while (false)

/// Debug-only check for hot paths; disappears when NDEBUG is defined.
#ifdef NDEBUG
#define PCNNA_DCHECK(expr) ((void)0)
#else
#define PCNNA_DCHECK(expr) PCNNA_CHECK(expr)
#endif
