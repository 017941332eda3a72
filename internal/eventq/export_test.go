package eventq

// newHeapOnly returns a queue that never builds its calendar ring: the
// pre-calendar layout the layout-invariance tests and the heap benchmark
// compare against.
func newHeapOnly() *Queue { return &Queue{heapOnly: true} }
