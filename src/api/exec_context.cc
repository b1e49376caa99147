#include "api/exec_context.h"

#include <iterator>
#include <variant>

#include "common/logging.h"

namespace vertexica {

namespace {

// The RunRequest field carrying each knob, in Knob order: a count (0 keeps
// the ambient value) or a token ("" keeps the ambient value).
using RequestField = std::variant<int RunRequest::*, std::string RunRequest::*>;
const RequestField kRequestFields[] = {
    &RunRequest::threads,    &RunRequest::shards,   &RunRequest::encoding,
    &RunRequest::merge_join, &RunRequest::frontier, &RunRequest::vectorized};
static_assert(std::size(kRequestFields) == kNumKnobs,
              "one RunRequest field per knob");

// The field's text for ParseKnob; "" when it keeps the ambient value.
std::string FieldText(const RunRequest& request, const RequestField& field) {
  if (const auto* count = std::get_if<int RunRequest::*>(&field)) {
    const int value = request.**count;
    return value == 0 ? std::string() : std::to_string(value);
  }
  return request.*std::get<std::string RunRequest::*>(field);
}

}  // namespace

Result<ExecContext> ExecContext::FromRequest(const RunRequest& request) {
  ExecContext ctx;
  ctx.knobs = ExecKnobs::Capture();
  for (Knob knob : kAllKnobs) {
    const std::string text =
        FieldText(request, kRequestFields[static_cast<int>(knob)]);
    if (text.empty()) continue;
    VX_ASSIGN_OR_RETURN(const int value, ParseKnob(knob, text));
    KnobSpecOf(knob).set(&ctx.knobs, value);
  }
  if (request.deadline_ms > 0) {
    // Derive rather than replace: the child token enforces the request
    // deadline while still observing an ambient (e.g. session-level)
    // cancellation installed by the serving layer.
    ctx.knobs.cancel =
        ctx.knobs.cancel.WithDeadlineAfter(request.deadline_ms / 1e3);
  }
  // Resolution audit: the contract above — "installing it on any thread
  // reproduces the configuration" — needs strictly positive counts, since
  // the scoped installers treat <= 0 as a no-op scope and would silently
  // fall through to that thread's ambient values instead.
  VX_DCHECK(ctx.knobs.threads >= 1 && ctx.knobs.shards >= 1)
      << "ExecContext resolved non-installable knobs: threads="
      << ctx.knobs.threads << " shards=" << ctx.knobs.shards;
  return ctx;
}

}  // namespace vertexica
