// new/delete in literals are prose, not allocations.
const char* kNote = "channels own their nodes; new RunNode is audited";
const char* kPatch = R"(
Event* e = new Event{t, origin, seq};
delete e;
)";
