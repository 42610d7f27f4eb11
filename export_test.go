package hirata

// RunPinned exposes the pinned-run check (pinned_test.go) to the external
// test package.
var RunPinned = runPinned
