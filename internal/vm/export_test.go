package vm

// RefCall runs m on the reference interpreter (refinterp_test.go), for
// the differential tests of package vm_test.
func (t *Thread) RefCall(m *Method, args ...Value) (Value, error) { return t.refCall(m, args...) }
