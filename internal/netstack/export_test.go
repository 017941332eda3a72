package netstack

// FreeList and CheckFreeList let the tests of package netstack_test, which
// run real routers on the stack, see the packet pool.
func FreeList(w *World) []*Packet { return w.pktFree }

var CheckFreeList = checkFreeList
