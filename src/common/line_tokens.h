// Strict reader for the line-oriented text artifacts a submission carries
// (.graph model files).  A line is split into whitespace-separated tokens
// and consumed front to back; a missing token, a number that does not
// parse in full or overflows its type, and a count larger than the tokens
// left on the line are each a CheckError.  Callers take
// counts through Count() before they allocate or loop, so a hostile file
// can never ask for more than its own length.
#pragma once

#include <algorithm>
#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace mlpm {

// The whole of `token` as a T; anything else is a CheckError naming `what`.
template <class T>
[[nodiscard]] T ParseInteger(std::string_view token, std::string_view what) {
  T v{};
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  Expects(ec == std::errc{} && stop == end, [&] {
    return "bad " + std::string(what) + ": '" + std::string(token) + "'";
  });
  return v;
}

class LineTokens {
 public:
  explicit LineTokens(std::string_view line) {
    constexpr std::string_view kSpace = " \t\r\n\v\f";
    for (auto b = line.find_first_not_of(kSpace); b != line.npos;
         b = line.find_first_not_of(kSpace, b)) {
      const auto e = std::min(line.find_first_of(kSpace, b), line.size());
      tokens_.push_back(line.substr(b, e - b));
      b = e;
    }
  }

  [[nodiscard]] std::size_t left() const { return tokens_.size() - next_; }

  [[nodiscard]] std::string_view Next(std::string_view what) {
    Expects(left() > 0, [&] { return "missing " + std::string(what); });
    return tokens_[next_++];
  }

  template <class T>
  [[nodiscard]] T Int(std::string_view what) {
    return ParseInteger<T>(Next(what), what);
  }

  // A count of items still to come on this line, each at least one token.
  [[nodiscard]] std::size_t Count(std::string_view what) {
    return Bound(Int<std::size_t>(what), what);
  }

  // `n` if the line still holds at least `n` tokens.
  [[nodiscard]] std::size_t Bound(std::size_t n, std::string_view what) const {
    Expects(n <= left(), [&] {
      return std::string(what) + " " + std::to_string(n) + " exceeds the " +
             std::to_string(left()) + " tokens left on the line";
    });
    return n;
  }

 private:
  std::vector<std::string_view> tokens_;
  std::size_t next_ = 0;
};

}  // namespace mlpm
