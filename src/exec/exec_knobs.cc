#include "exec/exec_knobs.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <thread>
#include <type_traits>

#include "common/env_knob.h"
#include "common/logging.h"

namespace vertexica {

const char* FrontierModeName(FrontierMode m) {
  switch (m) {
    case FrontierMode::kAuto:
      return "auto";
    case FrontierMode::kOn:
      return "on";
    case FrontierMode::kOff:
      return "off";
  }
  return "?";
}

namespace {

int Index(Knob knob) { return static_cast<int>(knob); }

template <auto Field>
int GetField(const ExecKnobs& knobs) {
  return static_cast<int>(knobs.*Field);
}

template <auto Field>
void SetField(ExecKnobs* knobs, int value) {
  using T = std::remove_reference_t<decltype(knobs->*Field)>;
  knobs->*Field = static_cast<T>(value);
}

// The knob table, in Knob order. Each value's canonical token comes first
// among its spellings, so the first token of a value names it.
const std::array<KnobSpec, kNumKnobs>& KnobTable() {
  static const std::array<KnobSpec, kNumKnobs> table = [] {
    const std::vector<KnobToken> on_off = {
        {"on", true},   {"off", false}, {"1", true},     {"true", true},
        {"yes", true},  {"0", false},   {"false", false}, {"no", false}};
    return std::array<KnobSpec, kNumKnobs>{{
        {"threads", "VERTEXICA_THREADS", {}, 1, 256,
         static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
         GetField<&ExecKnobs::threads>, SetField<&ExecKnobs::threads>},
        {"shards", "VERTEXICA_SHARDS", {}, 1, 4096, 1,
         GetField<&ExecKnobs::shards>, SetField<&ExecKnobs::shards>},
        {"encoding", "VERTEXICA_ENCODING",
         {{"auto", EncodingMode::kAuto}, {"off", EncodingMode::kOff},
          {"force", EncodingMode::kForce}, {"on", EncodingMode::kAuto},
          {"1", EncodingMode::kAuto}, {"true", EncodingMode::kAuto},
          {"0", EncodingMode::kOff}, {"false", EncodingMode::kOff},
          {"none", EncodingMode::kOff}},
         0, 0, static_cast<int>(EncodingMode::kAuto),
         GetField<&ExecKnobs::encoding>, SetField<&ExecKnobs::encoding>},
        {"merge_join", "VERTEXICA_MERGE_JOIN", on_off, 0, 0, 1,
         GetField<&ExecKnobs::merge_join>, SetField<&ExecKnobs::merge_join>},
        {"frontier", "VERTEXICA_FRONTIER",
         {{"auto", FrontierMode::kAuto}, {"on", FrontierMode::kOn},
          {"off", FrontierMode::kOff}, {"1", FrontierMode::kOn},
          {"true", FrontierMode::kOn}, {"force", FrontierMode::kOn},
          {"0", FrontierMode::kOff}, {"false", FrontierMode::kOff},
          {"none", FrontierMode::kOff}},
         0, 0, static_cast<int>(FrontierMode::kAuto),
         GetField<&ExecKnobs::frontier>, SetField<&ExecKnobs::frontier>},
        {"vectorized", "VERTEXICA_VECTORIZED", on_off, 0, 0, 1,
         GetField<&ExecKnobs::vectorized>, SetField<&ExecKnobs::vectorized>},
    }};
  }();
  return table;
}

std::string ToLower(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// Every knob's current value on one thread.
struct KnobValues {
  int of[kNumKnobs];
};

const KnobValues& EnvKnobValues() {
  static const KnobValues env = [] {
    KnobValues values{};
    for (Knob knob : kAllKnobs) values.of[Index(knob)] = ReadEnvKnob(knob);
    return values;
  }();
  return env;
}

// A thread starts at the environment values; scopes overwrite and restore.
thread_local KnobValues tl_knobs = EnvKnobValues();

// Integer knobs treat values <= 0 as "ambient": installing one is a no-op.
bool Installable(Knob knob, int value) {
  return value > 0 || !KnobSpecOf(knob).is_integer();
}

}  // namespace

const KnobSpec& KnobSpecOf(Knob knob) { return KnobTable()[Index(knob)]; }

Result<int> ParseKnob(Knob knob, const std::string& text) {
  const KnobSpec& spec = KnobSpecOf(knob);
  if (spec.is_integer()) {
    bool clamped = false;
    const std::optional<long> value =
        ParseKnobInt(text.c_str(), spec.min_value, spec.max_value, &clamped);
    if (value.has_value() && !clamped) return static_cast<int>(*value);
    return Status::InvalidArgument(
        std::string(spec.name) + "='" + text + "' is not an integer in [" +
        std::to_string(spec.min_value) + ", " +
        std::to_string(spec.max_value) + "]");
  }
  const std::string lower = ToLower(text);
  std::string accepted;
  for (const KnobToken& token : spec.tokens) {
    if (lower == token.text) return token.value;
    accepted += accepted.empty() ? "" : "|";
    accepted += token.text;
  }
  return Status::InvalidArgument(std::string(spec.name) + "='" + text +
                                 "' is not one of {" + accepted + "}");
}

int ReadEnvKnob(Knob knob) {
  const KnobSpec& spec = KnobSpecOf(knob);
  if (spec.is_integer()) {
    return static_cast<int>(EnvIntKnob(spec.env_var, spec.min_value,
                                       spec.max_value, spec.default_value));
  }
  std::vector<std::string> texts;
  const char* fallback = nullptr;  // the default's canonical token
  for (const KnobToken& token : spec.tokens) {
    texts.push_back(token.text);
    if (fallback == nullptr && token.value == spec.default_value) {
      fallback = token.text;
    }
  }
  return *ParseKnob(knob, EnvTokenKnob(spec.env_var, texts, fallback));
}

int AmbientKnob(Knob knob) { return tl_knobs.of[Index(knob)]; }

int ExecThreads() { return tl_knobs.of[Index(Knob::kThreads)]; }

int ExecShards() { return tl_knobs.of[Index(Knob::kShards)]; }

EncodingMode AmbientEncodingMode() {
  return static_cast<EncodingMode>(tl_knobs.of[Index(Knob::kEncoding)]);
}

bool MergeJoinEnabled() { return tl_knobs.of[Index(Knob::kMergeJoin)] != 0; }

FrontierMode AmbientFrontierMode() {
  return static_cast<FrontierMode>(tl_knobs.of[Index(Knob::kFrontier)]);
}

bool VectorizedEnabled() {
  return tl_knobs.of[Index(Knob::kVectorized)] != 0;
}

ScopedKnob::ScopedKnob(Knob knob, int value)
    : knob_(knob), prev_(tl_knobs.of[Index(knob)]) {
  if (Installable(knob, value)) tl_knobs.of[Index(knob)] = value;
}

ScopedKnob::~ScopedKnob() { tl_knobs.of[Index(knob_)] = prev_; }

ExecKnobs ExecKnobs::Capture() {
  ExecKnobs knobs;
  for (Knob knob : kAllKnobs) KnobSpecOf(knob).set(&knobs, AmbientKnob(knob));
  knobs.cancel = AmbientCancelToken();
  knobs.kernel_stats = AmbientKernelStats();
  return knobs;
}

bool ExecKnobs::operator==(const ExecKnobs& other) const {
  for (Knob knob : kAllKnobs) {
    const KnobSpec& spec = KnobSpecOf(knob);
    if (spec.get(*this) != spec.get(other)) return false;
  }
  return cancel == other.cancel && kernel_stats == other.kernel_stats;
}

ScopedExecKnobs::ScopedExecKnobs(const ExecKnobs& knobs)
    : cancel_(knobs.cancel), kernel_stats_(knobs.kernel_stats) {
  for (Knob knob : kAllKnobs) {
    const int value = KnobSpecOf(knob).get(knobs);
    prev_[Index(knob)] = tl_knobs.of[Index(knob)];
    if (Installable(knob, value)) tl_knobs.of[Index(knob)] = value;
  }
  VX_DCHECK(ExecKnobs::Capture() == knobs)
      << "ScopedExecKnobs: installed knobs do not round-trip through "
         "Capture (a thread or shard count <= 0?)";
}

ScopedExecKnobs::~ScopedExecKnobs() {
  std::copy(prev_, prev_ + kNumKnobs, tl_knobs.of);
}

}  // namespace vertexica
