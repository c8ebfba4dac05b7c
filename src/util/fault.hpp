/// \file fault.hpp
/// Deterministic fault-injection registry (docs/robustness.md).
///
/// Model: production code marks each failure-prone spot with a *named fault
/// site* — `if (fault::point("transport.send.short_write")) ...` — and the
/// registry decides, per site, whether that evaluation *fires*.  Sites are
/// inert (one relaxed atomic load) until a *fault spec* arms them, via
/// `dominod --fault-spec`, the `DOMINOSYN_FAULT_SPEC` environment variable
/// (read once at process start), or `fault::configure()` in tests.
///
/// Spec grammar — semicolon-separated clauses, one per site:
///
///     site=item[,item...][;site=...]
///
/// where each item is one of
///
///     always        fire on every evaluation (the default when no trigger
///                   item is given)
///     off           never fire (masks an earlier clause / the env spec)
///     nth:N         fire on exactly the N-th evaluation (1-based)
///     every:K       fire on every K-th evaluation (K, 2K, 3K, ...)
///     first:N       fire on the first N evaluations
///     prob:P        fire with probability P per evaluation, drawn from a
///                   seeded per-site Xoshiro stream (deterministic)
///     seed:S        reseed the site's PRNG (default: hash of the site name)
///     delay_ms:D    sleep D milliseconds when the site fires, *in addition*
///                   to returning true (latency injection; a site armed with
///                   only `delay_ms` still fires its fault)
///
/// Example: `transport.recv.short_read=every:3;client.send.fail=nth:2`.
///
/// Determinism: triggers are counter- or seeded-PRNG-based, so a given spec
/// fires the same evaluations on every run (modulo thread interleaving of
/// the evaluation order itself).  The chaos suite exploits this: served
/// reports must be bit-identical with faults on vs. off.
///
/// `DOMINOSYN_NO_FAULTS` compiles the whole registry down to `constexpr
/// false` — zero fault instructions on the hot path (CI asserts no
/// `dominosyn::fault` symbols survive in the library).

#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace dominosyn::fault {

/// Per-site evaluation/injection tallies, exported into the stats verb and
/// `prometheus_text()` as `dominosyn_faults_injected_total{site="..."}`.
struct SiteCounters {
  std::uint64_t evaluated = 0;  ///< times the site was reached while armed
  std::uint64_t injected = 0;   ///< times it fired
};

/// The catalogue of fault sites compiled into the production code paths,
/// sorted.  `configure()` rejects spec clauses naming sites outside this
/// list — a typo'd site must fail loudly, not arm nothing silently.
/// Lives in the header (not fault.cpp) so `dominod --list-fault-sites`
/// answers even in the DOMINOSYN_NO_FAULTS build, where the list documents
/// what *would* be injectable; no library TU references it there, so the
/// zero-symbol CI check still holds.
inline constexpr const char* kSiteCatalogue[] = {
    "client.recv.fail",
    "client.recv.short_read",
    "client.send.fail",
    "client.send.short_write",
    "protocol.response.corrupt",
    "protocol.response.truncate",
    "transport.recv.fail",
    "transport.recv.short_read",
    "transport.send.fail",
    "transport.send.short_write",
};

/// The catalogue as strings, sorted (the array above is kept sorted).
[[nodiscard]] inline std::vector<std::string> sites() {
  return {std::begin(kSiteCatalogue), std::end(kSiteCatalogue)};
}

#ifndef DOMINOSYN_NO_FAULTS

inline constexpr bool kFaultsCompiledOut = false;

/// True when the site fires this evaluation.  Inert sites (no spec loaded,
/// or this site absent from it) cost one relaxed atomic load.  When the site
/// fires and carries a `delay_ms`, sleeps before returning (outside the
/// registry lock).
[[nodiscard]] bool point(const char* site) noexcept;

/// Replaces the active spec wholesale (not additive).  Throws
/// std::invalid_argument naming the offending clause on a malformed spec.
/// An empty spec is equivalent to clear().
void configure(const std::string& spec);

/// Loads `DOMINOSYN_FAULT_SPEC` if set; returns true when a non-empty spec
/// was installed.  Called automatically once at process start, so exported
/// env reaches every binary (tests, daemons, clients) without plumbing.
bool configure_from_env();

/// Disarms every site and resets all counters.
void clear() noexcept;

/// True when any site is armed.
[[nodiscard]] bool active() noexcept;

/// The active spec string ("" when disarmed) — echoed at daemon startup.
[[nodiscard]] std::string spec();

/// Snapshot of per-site counters, sorted by site name.
[[nodiscard]] std::vector<std::pair<std::string, SiteCounters>> counters();

/// Fired count for one site (0 if unknown).
[[nodiscard]] std::uint64_t injected(const std::string& site);

/// Total injections across all sites since the last configure()/clear().
[[nodiscard]] std::uint64_t total_injected() noexcept;

#else  // DOMINOSYN_NO_FAULTS

inline constexpr bool kFaultsCompiledOut = true;

[[nodiscard]] inline constexpr bool point(const char*) noexcept {
  return false;
}
inline void configure(const std::string&) {}
inline bool configure_from_env() { return false; }
inline void clear() noexcept {}
[[nodiscard]] inline constexpr bool active() noexcept { return false; }
[[nodiscard]] inline std::string spec() { return {}; }
[[nodiscard]] inline std::vector<std::pair<std::string, SiteCounters>>
counters() {
  return {};
}
[[nodiscard]] inline std::uint64_t injected(const std::string&) { return 0; }
[[nodiscard]] inline constexpr std::uint64_t total_injected() noexcept {
  return 0;
}

#endif  // DOMINOSYN_NO_FAULTS

}  // namespace dominosyn::fault
