// Machine-readable finding output for aqua_lint (--json / --json-out).
// Hand-rolled on purpose: the schema is tiny and the toolchain adds no
// JSON dependency.
//
// Schema (version 1):
//   {
//     "version": 1,
//     "findings": [
//       {"file": "src/dsp/fft.cpp", "line": 12, "col": 5,
//        "rule": "hot-alloc", "message": "..."},
//       ...
//     ]
//   }
#pragma once

#include <string>
#include <vector>

namespace aqua::lint {

struct Finding {
  std::string file;  ///< repo-relative path (or display path for fixtures)
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;
};

/// Serializes findings to the version-1 JSON document above.
std::string findings_to_json(const std::vector<Finding>& findings);

}  // namespace aqua::lint
