// Seeded violation: an undocumented READDUO_* knob literal.
const char* kKnob = "READDUO_BOGUS_KNOB";  // expect: env-registry
const char* kOk = "READDUO_THREADS";  // registered: no finding
// Near-miss: one character off a registered knob must still fire (the
// registry is exact-match, not prefix-match).
const char* kNear = "READDUO_TRACES";  // expect: env-registry
const char* kOkTrace = "READDUO_TRACE";  // registered: no finding
