#include "obs/span.h"

#include <sstream>

#include "obs/analysis/json.h"

namespace rgml::obs {

const char* toString(Category category) {
  switch (category) {
    case Category::Step:
      return "step";
    case Category::CheckpointSave:
      return "checkpoint-save";
    case Category::CheckpointCommit:
      return "checkpoint-commit";
    case Category::CheckpointCancel:
      return "checkpoint-cancel";
    case Category::Restore:
      return "restore";
    case Category::Comms:
      return "comms";
    case Category::Kill:
      return "kill";
    case Category::Finish:
      return "finish";
    case Category::Run:
      return "run";
  }
  return "?";
}

bool parseCategory(const std::string& name, Category& out) {
  for (Category c :
       {Category::Step, Category::CheckpointSave, Category::CheckpointCommit,
        Category::CheckpointCancel, Category::Restore, Category::Comms,
        Category::Kill, Category::Finish, Category::Run}) {
    if (name == toString(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

std::string spanLine(const Span& s) {
  std::ostringstream os;
  os << '[' << jsonNumber(s.startTime) << "s.." << jsonNumber(s.endTime)
     << "s] " << toString(s.category) << ' ' << s.name;
  if (s.iteration >= 0) os << " iter=" << s.iteration;
  if (s.place >= 0) os << " p" << s.place;
  if (s.bytes > 0) os << " bytes=" << s.bytes;
  for (const auto& [key, value] : s.args) os << ' ' << key << '=' << value;
  return os.str();
}

}  // namespace rgml::obs
