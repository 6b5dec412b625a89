#include "lint/callgraph.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace aqua::lint {

namespace {

struct Node {
  std::size_t tu = 0;
  std::size_t fn = 0;
  bool seed = false;
  bool exempt = false;
  bool hot = false;
  bool exempt_used = false;
  std::size_t hot_from = kNpos;  ///< node that handed us hotness
};

std::string display_name(const FunctionSym& f) {
  if (f.is_lambda) return "<lambda>";
  if (f.class_name.empty()) return f.name;
  return f.class_name + "::" + f.name;
}

}  // namespace

HotInfo propagate_hot(const std::vector<CallGraphTu>& tus) {
  std::vector<Node> nodes;
  // [tu] -> function index -> node id.
  std::vector<std::vector<std::size_t>> node_of(tus.size());

  for (std::size_t t = 0; t < tus.size(); ++t) {
    const SymbolTable& sym = *tus[t].sym;
    node_of[t].resize(sym.functions.size());
    for (std::size_t f = 0; f < sym.functions.size(); ++f) {
      const FunctionSym& fs = sym.functions[f];
      Node nd;
      nd.tu = t;
      nd.fn = f;
      nd.exempt = f < tus[t].exempt.size() && tus[t].exempt[f];
      // Constructors/destructors run at setup/teardown, never on the
      // per-sample path, so a Workspace& constructor parameter (e.g. a
      // plan object borrowing the arena during build) does not seed.
      nd.seed = fs.takes_workspace && !fs.is_ctor_or_dtor;
      nd.hot = nd.seed;
      node_of[t][f] = nodes.size();
      nodes.push_back(nd);
    }
  }

  // Project-wide name index over callable targets. Constructors,
  // destructors and lambdas are excluded: ctors/dtors are cold by
  // definition above, and lambdas are only reachable through their
  // enclosing function, modeled as a direct parent edge below.
  std::unordered_map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const FunctionSym& fs = tus[nodes[id].tu].sym->functions[nodes[id].fn];
    if (fs.is_lambda || fs.is_ctor_or_dtor) continue;
    by_name[fs.name].push_back(id);
  }

  // Fields declared with a `std::` type: a call on one (`pending_.reset()`
  // on a std::optional) reaches no project function. Keyed "Cls::field"
  // for the caller's own fields; by bare name for another object's
  // (`slot.live.reset()`), where the owning class is unknown, and then
  // only when no class declares that name with a project type.
  std::unordered_set<std::string> std_fields;
  std::unordered_set<std::string> std_names;
  std::unordered_set<std::string> project_names;
  for (const CallGraphTu& tu : tus) {
    for (const FieldSym& f : tu.sym->fields) {
      if (f.std_type) {
        std_fields.insert(f.class_name + "::" + f.field);
        std_names.insert(f.field);
      } else {
        project_names.insert(f.field);
      }
    }
  }
  const auto calls_library = [&](const SymbolTable& sym,
                                 const CallSiteSym& cs) {
    if (cs.receiver.empty()) return false;
    if (cs.receiver_nested) {
      return std_names.contains(cs.receiver) &&
             !project_names.contains(cs.receiver);
    }
    // A lambda calls with its enclosing member function's fields.
    std::size_t owner = cs.caller;
    while (sym.functions[owner].is_lambda &&
           sym.functions[owner].parent != kNpos) {
      owner = sym.functions[owner].parent;
    }
    return std_fields.contains(sym.functions[owner].class_name + "::" +
                               cs.receiver);
  };

  std::vector<std::vector<std::size_t>> edges(nodes.size());

  // A lambda defined inside a hot body executes on the hot path (the
  // common shape: a kernel passed to a local algorithm). Parent -> lambda.
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const FunctionSym& fs = tus[nodes[id].tu].sym->functions[nodes[id].fn];
    if (fs.is_lambda && fs.parent != kNpos) {
      edges[node_of[nodes[id].tu][fs.parent]].push_back(id);
    }
  }

  for (std::size_t t = 0; t < tus.size(); ++t) {
    const SymbolTable& sym = *tus[t].sym;
    for (const CallSiteSym& cs : sym.calls) {
      if (cs.caller == kNpos) continue;
      auto it = by_name.find(cs.callee);
      if (it == by_name.end()) continue;
      if (calls_library(sym, cs)) continue;
      const std::size_t caller_id = node_of[t][cs.caller];
      // With a spelled `Cls::` qualifier, prefer candidates of that class;
      // if none match, the qualifier was a namespace and every candidate
      // stays in play. Member-call syntax prefers member functions.
      bool class_matched = false;
      if (!cs.qualifier.empty()) {
        for (std::size_t cand : it->second) {
          const FunctionSym& fs =
              tus[nodes[cand].tu].sym->functions[nodes[cand].fn];
          if (fs.class_name == cs.qualifier) class_matched = true;
        }
      }
      bool any_member = false;
      if (cs.member_call) {
        for (std::size_t cand : it->second) {
          const FunctionSym& fs =
              tus[nodes[cand].tu].sym->functions[nodes[cand].fn];
          if (!fs.class_name.empty()) any_member = true;
        }
      }
      for (std::size_t cand : it->second) {
        const FunctionSym& fs =
            tus[nodes[cand].tu].sym->functions[nodes[cand].fn];
        if (class_matched && fs.class_name != cs.qualifier) continue;
        if (cs.member_call && any_member && fs.class_name.empty()) continue;
        edges[caller_id].push_back(cand);
      }
    }
  }

  // BFS from the seeds. An exempt function absorbs hotness (marking its
  // annotation used) without becoming hot or passing it on.
  std::deque<std::size_t> queue;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].hot) queue.push_back(id);
  }
  while (!queue.empty()) {
    const std::size_t id = queue.front();
    queue.pop_front();
    for (std::size_t callee : edges[id]) {
      Node& nd = nodes[callee];
      if (nd.hot) continue;
      if (nd.exempt) {
        nd.exempt_used = true;
        continue;
      }
      nd.hot = true;
      nd.hot_from = id;
      queue.push_back(callee);
    }
  }

  HotInfo info;
  info.hot.resize(tus.size());
  info.exempt_used.resize(tus.size());
  info.chain.resize(tus.size());
  for (std::size_t t = 0; t < tus.size(); ++t) {
    const std::size_t count = tus[t].sym->functions.size();
    info.hot[t].assign(count, 0);
    info.exempt_used[t].assign(count, 0);
    info.chain[t].assign(count, std::string());
  }
  for (const Node& nd : nodes) {
    info.hot[nd.tu][nd.fn] = nd.hot ? 1 : 0;
    info.exempt_used[nd.tu][nd.fn] = nd.exempt_used ? 1 : 0;
  }
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!nodes[id].hot || nodes[id].seed) continue;
    // Rebuild the seed -> ... -> me witness path.
    std::vector<std::size_t> path{id};
    std::size_t cur = id;
    while (nodes[cur].hot_from != kNpos) {
      cur = nodes[cur].hot_from;
      path.push_back(cur);
    }
    std::string chain;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!chain.empty()) chain += " -> ";
      chain +=
          display_name(tus[nodes[*it].tu].sym->functions[nodes[*it].fn]);
    }
    info.chain[nodes[id].tu][nodes[id].fn] = chain;
  }
  return info;
}

}  // namespace aqua::lint
