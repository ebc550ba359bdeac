package testbench

// FreshStorePerRun gives every run of every testbench a fresh trace
// store, until the returned function is called. Tests that use it must
// not run in parallel with others.
func FreshStorePerRun() (restore func()) {
	storePerRun = true
	return func() { storePerRun = false }
}
