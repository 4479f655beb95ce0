// The event-driven XML lexer behind ParseDocument (parser.cpp). It checks
// the grammar, decodes entities and character references, drops
// whitespace-only text, reads the `labels` attribute as extra labels
// (Remark 3.1), and reports errors with their line and column. Every
// element it accepts goes straight into a PreorderBuilder (xml/builder.hpp)
// as one of these calls, nested like the source text:
//   StartElement(tag)            // also the root
//   AddAttribute(name, value)
//   AddLabel(label)              // one per kLabelsAttribute entry
//   AppendText(text)             // innermost open element
//   EndElement()                 // matches StartElement
// Attribute and label calls arrive between an element's StartElement and
// its first child, text or EndElement. Text arrives decoded and trimmed per
// chunk; CDATA content arrives verbatim.

#ifndef GKX_XML_PARSER_CORE_HPP_
#define GKX_XML_PARSER_CORE_HPP_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "base/string_util.hpp"
#include "xml/builder.hpp"
#include "xml/document.hpp"

namespace gkx::xml::parser_internal {

inline bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

inline bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

inline bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '.' || c == '-';
}

/// XML 1.0's Char production: the code points a character reference may
/// name. `code` is at most 0x10FFFF.
inline bool IsXmlChar(uint32_t code) {
  if (code < 0x20) return code == 0x9 || code == 0xA || code == 0xD;
  return code < 0xD800 || (code >= 0xE000 && code != 0xFFFE && code != 0xFFFF);
}

/// Cheap pre-scan element-count estimate: every open tag is a '<' followed
/// by a name-start character. Over-counts matches inside comments/CDATA and
/// counts nothing else, so it is a good reserve() hint, not a promise; a
/// hostile input can make it anything, so ParseDocument caps the hint.
inline int32_t EstimateNodeCount(std::string_view xml) {
  int64_t count = 0;
  for (size_t i = 0; i + 1 < xml.size(); ++i) {
    if (xml[i] == '<' && IsNameStart(xml[i + 1])) ++count;
  }
  return static_cast<int32_t>(
      std::min<int64_t>(count, std::numeric_limits<int32_t>::max()));
}

class EventParser {
 public:
  EventParser(std::string_view xml, PreorderBuilder* builder)
      : xml_(xml), builder_(builder) {}

  Status Run() {
    SkipMisc(/*allow_doctype=*/true);
    if (AtEnd()) return Error("document has no root element");
    if (Peek() != '<') return Error("expected root element");

    bool have_root = false;

    while (!AtEnd()) {
      if (Peek() == '<') {
        if (Match("<!--")) {
          GKX_RETURN_IF_ERROR(SkipUntil("-->", "unterminated comment"));
        } else if (Match("<![CDATA[")) {
          size_t start = pos_;
          GKX_RETURN_IF_ERROR(SkipUntil("]]>", "unterminated CDATA section"));
          if (!open_names_.empty()) {
            // CDATA content is verbatim: no entity decoding, no trimming.
            builder_->AppendText(xml_.substr(start, pos_ - 3 - start));
          }
        } else if (Match("<?")) {
          GKX_RETURN_IF_ERROR(
              SkipUntil("?>", "unterminated processing instruction"));
        } else if (Match("</")) {
          std::string name;
          GKX_RETURN_IF_ERROR(ReadName(&name));
          SkipSpace();
          if (!Match(">")) return Error("expected '>' in closing tag");
          if (open_names_.empty()) {
            return Error("closing tag without open element");
          }
          // Tag-name match check against the element being closed.
          if (open_names_.back() != name) {
            return Error("mismatched closing tag </" + name +
                         ">, expected </" + open_names_.back() + ">");
          }
          open_names_.pop_back();
          builder_->EndElement();
          if (open_names_.empty()) {
            SkipMisc(/*allow_doctype=*/false);
            if (!AtEnd()) return Error("content after root element");
            break;
          }
        } else {
          ++pos_;  // consume '<'
          std::string name;
          GKX_RETURN_IF_ERROR(ReadName(&name));
          if (have_root && open_names_.empty()) {
            return Error("multiple root elements");
          }
          have_root = true;
          builder_->StartElement(name);
          GKX_RETURN_IF_ERROR(ReadAttributes());
          SkipSpace();
          if (Match("/>")) {
            builder_->EndElement();
            if (open_names_.empty()) {  // self-closing root
              SkipMisc(/*allow_doctype=*/false);
              if (!AtEnd()) return Error("content after root element");
              break;
            }
          } else if (Match(">")) {
            open_names_.push_back(name);
          } else {
            return Error("expected '>' or '/>' in tag");
          }
        }
      } else {
        size_t start = pos_;
        while (!AtEnd() && Peek() != '<') ++pos_;
        if (open_names_.empty()) {
          std::string_view gap = xml_.substr(start, pos_ - start);
          if (!StripWhitespace(gap).empty()) {
            return Error("text outside of root element");
          }
          continue;
        }
        std::string text;
        GKX_RETURN_IF_ERROR(
            DecodeText(xml_.substr(start, pos_ - start), &text));
        // Trim each chunk: indentation around markup is not content.
        const std::string_view trimmed = StripWhitespace(text);
        if (!trimmed.empty()) builder_->AppendText(trimmed);
      }
    }
    if (!open_names_.empty()) {
      return Error("unterminated element <" + open_names_.back() + ">");
    }
    if (!have_root) return Error("document has no root element");
    return Status::Ok();
  }

 private:
  bool AtEnd() const { return pos_ >= xml_.size(); }
  char Peek() const { return xml_[pos_]; }

  bool Match(std::string_view token) {
    if (xml_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }

  /// Skips whitespace, comments, PIs (and optionally one DOCTYPE) between
  /// top-level constructs.
  void SkipMisc(bool allow_doctype) {
    while (true) {
      SkipSpace();
      if (Match("<!--")) {
        (void)SkipUntil("-->", "");
      } else if (Match("<?")) {
        (void)SkipUntil("?>", "");
      } else if (allow_doctype && xml_.substr(pos_, 9) == "<!DOCTYPE") {
        // Skip to the matching '>' (tolerating an internal subset in [...]).
        int bracket_depth = 0;
        while (!AtEnd()) {
          char c = xml_[pos_++];
          if (c == '[') ++bracket_depth;
          if (c == ']') --bracket_depth;
          if (c == '>' && bracket_depth == 0) break;
        }
      } else {
        return;
      }
    }
  }

  Status SkipUntil(std::string_view terminator, std::string_view error) {
    size_t found = xml_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      pos_ = xml_.size();
      return error.empty() ? Status::Ok() : Error(std::string(error));
    }
    pos_ = found + terminator.size();
    return Status::Ok();
  }

  Status ReadName(std::string* out) {
    if (AtEnd() || !IsNameStart(Peek())) {
      return Error("expected a name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    *out = std::string(xml_.substr(start, pos_ - start));
    return Status::Ok();
  }

  Status ReadAttributes() {
    while (true) {
      size_t before = pos_;
      SkipSpace();
      if (AtEnd() || !IsNameStart(Peek())) {
        pos_ = before;
        SkipSpace();
        return Status::Ok();
      }
      std::string name;
      GKX_RETURN_IF_ERROR(ReadName(&name));
      SkipSpace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipSpace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      std::string value;
      GKX_RETURN_IF_ERROR(DecodeText(xml_.substr(start, pos_ - start), &value));
      ++pos_;  // closing quote
      if (name == kLabelsAttribute) {
        for (const std::string& label : Split(value, ' ')) {
          if (!label.empty()) builder_->AddLabel(label);
        }
      } else {
        builder_->AddAttribute(name, value);
      }
    }
  }

  Status DecodeText(std::string_view raw, std::string* out) {
    out->reserve(out->size() + raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out->push_back(raw[i++]);
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out->push_back('<');
      } else if (entity == "gt") {
        out->push_back('>');
      } else if (entity == "amp") {
        out->push_back('&');
      } else if (entity == "quot") {
        out->push_back('"');
      } else if (entity == "apos") {
        out->push_back('\'');
      } else if (!entity.empty() && entity[0] == '#') {
        uint32_t code = 0;
        bool ok = false;
        std::string_view digits = entity.substr(1);
        int base = 10;
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits = digits.substr(1);
        }
        for (char c : digits) {
          int digit;
          if (c >= '0' && c <= '9') {
            digit = c - '0';
          } else if (base == 16 && c >= 'a' && c <= 'f') {
            digit = c - 'a' + 10;
          } else if (base == 16 && c >= 'A' && c <= 'F') {
            digit = c - 'A' + 10;
          } else {
            return Error("bad character reference");
          }
          // Bounded after every digit, so the sum cannot wrap.
          code =
              code * static_cast<uint32_t>(base) + static_cast<uint32_t>(digit);
          if (code > 0x10FFFF) return Error("bad character reference");
          ok = true;
        }
        if (!ok || !IsXmlChar(code)) return Error("bad character reference");
        AppendUtf8(code, out);
      } else {
        return Error("unknown entity &" + std::string(entity) + ";");
      }
      i = semi + 1;
    }
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status Error(std::string message) const {
    // Compute 1-based line/column of pos_.
    int line = 1;
    int col = 1;
    for (size_t i = 0; i < pos_ && i < xml_.size(); ++i) {
      if (xml_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return InvalidArgumentError(
        "XML parse error at line " + std::to_string(line) + ", column " +
        std::to_string(col) + ": " + message);
  }

  std::string_view xml_;
  PreorderBuilder* builder_;
  size_t pos_ = 0;
  std::vector<std::string> open_names_;
};

}  // namespace gkx::xml::parser_internal

#endif  // GKX_XML_PARSER_CORE_HPP_
