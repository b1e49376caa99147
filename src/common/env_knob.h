/// \file env_knob.h
/// \brief One validated parsing point for the VERTEXICA_* environment
/// knobs (the knob table, exec/exec_knobs.h, reads the environment through
/// these).
///
/// Before this header each knob parsed its own environment variable with
/// its own tolerance for garbage: VERTEXICA_THREADS was clamped in the
/// thread pool but unclamped in ExecThreads, VERTEXICA_SHARDS silently
/// accepted "8abc" as 8, and a typoed VERTEXICA_ENCODING fell back to the
/// default without a word. These helpers give every knob the same
/// contract: strict integer / token parsing, explicit ranges, and one
/// warning per variable per process when a value is rejected or clamped —
/// a misconfigured server logs what it ignored instead of silently running
/// with defaults.

#ifndef VERTEXICA_COMMON_ENV_KNOB_H_
#define VERTEXICA_COMMON_ENV_KNOB_H_

#include <optional>
#include <string>
#include <vector>

namespace vertexica {

/// \brief Strictly parses `text` as a decimal integer (optional sign,
/// surrounding whitespace allowed, no trailing junk). Returns nullopt for
/// garbage; out-of-range values are clamped to [min_value, max_value] with
/// `clamped` (when non-null) set so callers can report it.
std::optional<long> ParseKnobInt(const char* text, long min_value,
                                 long max_value, bool* clamped = nullptr);

/// \brief Reads environment variable `name` as an integer knob.
///
/// Unset (or empty) returns `fallback` silently. A valid value is clamped
/// into [min_value, max_value]; clamping and outright garbage each log one
/// kWarn line per variable per process (garbage additionally falls back to
/// `fallback`).
long EnvIntKnob(const char* name, long min_value, long max_value,
                long fallback);

/// \brief Reads environment variable `name` as a token knob.
///
/// Unset (or empty) returns `fallback` silently. A value matching one of
/// `allowed` case-insensitively is returned lower-cased; anything else
/// logs one kWarn line per variable per process and returns `fallback`.
std::string EnvTokenKnob(const char* name,
                         const std::vector<std::string>& allowed,
                         const char* fallback);

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_ENV_KNOB_H_
