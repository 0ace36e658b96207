#include "clfront/stream.hpp"

#include <algorithm>
#include <utility>

#include "clfront/parser.hpp"

namespace repro::clfront {

namespace {

/// First slab of a feeder's function arena: room for the AST of a typical
/// function, so most streams never grow it.
constexpr std::size_t kFunctionArenaBytes = 16 * 1024;

}  // namespace

SourceFeeder::SourceFeeder(StreamOptions options)
    : options_(options),
      arena_(std::make_unique<common::Arena>(kFunctionArenaBytes)),
      deferred_arena_(std::make_unique<common::Arena>()) {}

common::Status SourceFeeder::feed(std::string_view chunk) {
  if (finished_) {
    return common::invalid_argument("SourceFeeder: feed after finish");
  }
  bytes_fed_ += chunk.size();
  if (!lex_error_.has_value() && bytes_fed_ > options_.max_source_bytes) {
    lex_error_ = common::parse_error(
        "SourceFeeder: source exceeds the max_source_bytes budget (" +
        std::to_string(options_.max_source_bytes) + ")");
  }
  if (lex_error_.has_value()) return *lex_error_;  // sticky; input discarded

  pending_.append(chunk);
  peak_pending_bytes_ = std::max(peak_pending_bytes_, pending_.size());
  const std::size_t first_new = tokens_.size();
  auto out = detail::lex_chunk(pending_, lex_state_, /*final=*/false, tokens_);
  pending_.erase(0, out.consumed);
  lex_state_ = out.state;
  if (out.error.has_value()) {
    lex_error_ = std::move(out.error);
    tokens_.clear();
    return *lex_error_;
  }
  ingest(first_new);
  return common::Status::Ok();
}

common::Status SourceFeeder::finish() {
  if (finished_) {
    return final_error_.has_value() ? common::Status(*final_error_)
                                    : common::Status::Ok();
  }
  finished_ = true;

  // Drain the pending tail (final = true: the last token commits, and an
  // unterminated block comment is now an error, as in one-shot lexing).
  if (!lex_error_.has_value()) {
    const std::size_t first_new = tokens_.size();
    auto out = detail::lex_chunk(pending_, lex_state_, /*final=*/true, tokens_);
    lex_state_ = out.state;
    if (out.error.has_value()) {
      lex_error_ = std::move(out.error);
    } else {
      ingest(first_new);
    }
  }
  pending_.clear();
  pending_.shrink_to_fit();

  // Tokens that never reached a balanced top-level '}' — an unterminated
  // function or trailing garbage. Parse them so the verdict (and message)
  // matches what the whole-string parser would say.
  if (!lex_error_.has_value() && !parse_error_.has_value() && !tokens_.empty()) {
    complete_function(tokens_);
  }
  tokens_.clear();
  tokens_.shrink_to_fit();

  // Settle the verdict with whole-string precedence: lexing runs first over
  // the entire input, then parsing, then lowering in declaration order.
  if (lex_error_.has_value()) {
    final_error_ = lex_error_;
  } else if (parse_error_.has_value()) {
    final_error_ = parse_error_;
  } else {
    for (auto& outcome : outcomes_) {
      if (outcome.summary.has_value()) {
        resolved_.push_back(std::move(*outcome.summary));
        continue;
      }
      if (outcome.deferred.has_value()) {
        // Forward reference: every signature of the stream is declared by
        // now, so this either lowers or is a genuine unknown callee. The
        // kNotFound deferral sentinel must not escape — at this boundary an
        // unknown callee is invalid source, matching lower_to_ir.
        auto ir = session_.lower(*outcome.deferred);
        if (!ir.ok()) {
          common::Error error = ir.error();
          if (error.code == common::ErrorCode::kNotFound) {
            error.code = common::ErrorCode::kParseError;
          }
          final_error_ = std::move(error);
          break;
        }
        resolved_.push_back(summarize(*ir.value()));
        continue;
      }
      if (outcome.error.has_value()) {
        final_error_ = outcome.error;
        break;
      }
      // Empty outcome: lowering was skipped past an earlier eager error,
      // which the walk already returned — unreachable otherwise.
    }
  }
  outcomes_.clear();
  deferred_arena_.reset();
  return final_error_.has_value() ? common::Status(*final_error_)
                                  : common::Status::Ok();
}

void SourceFeeder::ingest(std::size_t first_new) {
  // After a parse error the verdict is fixed; tokens are only scanned (for
  // lexical errors, found by the lexer itself), never kept.
  if (parse_error_.has_value()) {
    tokens_.clear();
    return;
  }
  std::size_t fn_start = 0;
  for (std::size_t i = first_new; i < tokens_.size(); ++i) {
    const TokenKind kind = tokens_[i].kind;
    if (kind == TokenKind::kLBrace) {
      ++brace_depth_;
    } else if (kind == TokenKind::kRBrace && brace_depth_ > 0) {
      if (--brace_depth_ == 0) {
        // A top-level function just closed: parse + lower + summarize it
        // now, straight from the lexer's vector — the core of the
        // bounded-memory contract.
        const std::span<const Token> all(tokens_);
        complete_function(all.subspan(fn_start, i + 1 - fn_start));
        if (parse_error_.has_value()) {
          tokens_.clear();
          return;
        }
        fn_start = i + 1;
      }
    }
  }
  // Release the finished functions' tokens; the open one's carry over.
  tokens_.erase(tokens_.begin(), tokens_.begin() + static_cast<std::ptrdiff_t>(fn_start));
}

void SourceFeeder::complete_function(std::span<const Token> tokens) {
  auto functions = Parser(tokens, lex_state_.loc, *arena_).parse_functions();
  if (!functions.ok()) {
    parse_error_ = functions.error();
    arena_->reset();
    return;
  }
  const std::size_t first = outcomes_.size();
  bool deferred = false;
  for (const FunctionDecl& fn : functions.value()) deferred |= absorb_function(fn);
  if (deferred) {
    // A deferred AST must outlive the reset below: parse the same tokens
    // again into deferred_arena_, which so holds only the trees finish()
    // retries, each at its own size. The parse is deterministic, so it
    // yields the same functions in the same order.
    auto kept = Parser(tokens, lex_state_.loc, *deferred_arena_).parse_functions();
    for (std::size_t i = 0; i < kept.value().size(); ++i) {
      Outcome& outcome = outcomes_[first + i];
      if (outcome.deferred.has_value()) outcome.deferred = kept.value()[i];
    }
  }
  arena_->reset();
}

bool SourceFeeder::absorb_function(const FunctionDecl& fn) {
  session_.declare(fn);
  Outcome outcome;
  if (!lower_error_seen_) {
    auto ir = session_.lower(fn);
    if (ir.ok()) {
      outcome.summary = summarize(*ir.value());
    } else if (ir.error().code == common::ErrorCode::kNotFound) {
      // A callee not declared yet — maybe a forward reference. Keep the AST
      // and retry at finish(), when the whole stream has been declared.
      outcome.deferred = fn;
    } else {
      outcome.error = ir.error();
      lower_error_seen_ = true;  // later lowering cannot outrank this error
    }
  }
  const bool deferred = outcome.deferred.has_value();
  outcomes_.push_back(std::move(outcome));
  return deferred;
}

common::Result<StaticFeatures> SourceFeeder::features(const std::string& kernel) const {
  if (!finished_) {
    return common::invalid_argument("SourceFeeder: features() before finish()");
  }
  if (final_error_.has_value()) return *final_error_;
  return CallResolver(resolved_).features(kernel);
}

common::Result<std::vector<StaticFeatures>> SourceFeeder::kernel_features() const {
  if (!finished_) {
    return common::invalid_argument("SourceFeeder: kernel_features() before finish()");
  }
  if (final_error_.has_value()) return *final_error_;
  CallResolver resolver(resolved_);
  std::vector<StaticFeatures> out;
  for (const auto& s : resolved_) {
    if (!s.is_kernel) continue;
    auto features = resolver.resolve(s);
    if (!features.ok()) return features.error();
    out.push_back(std::move(features).take());
  }
  return out;
}

common::Result<StaticFeatures> extract_features_chunked(std::string_view source,
                                                        std::size_t chunk_size,
                                                        const std::string& kernel,
                                                        StreamOptions options) {
  if (chunk_size == 0) {
    return common::invalid_argument("extract_features_chunked: chunk_size must be > 0");
  }
  SourceFeeder feeder(options);
  for (std::size_t offset = 0; offset < source.size(); offset += chunk_size) {
    if (auto st = feeder.feed(source.substr(offset, chunk_size)); !st.ok()) {
      return st.error();
    }
  }
  if (auto st = feeder.finish(); !st.ok()) return st.error();
  return feeder.features(kernel);
}

}  // namespace repro::clfront
