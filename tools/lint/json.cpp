#include "lint/json.h"

#include <cstdio>
#include <string_view>

namespace aqua::lint {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"version\": 1,\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"";
    append_escaped(out, f.file);
    out += "\", \"line\": " + std::to_string(f.line);
    out += ", \"col\": " + std::to_string(f.col);
    out += ", \"rule\": \"";
    append_escaped(out, f.rule);
    out += "\", \"message\": \"";
    append_escaped(out, f.message);
    out += "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace aqua::lint
