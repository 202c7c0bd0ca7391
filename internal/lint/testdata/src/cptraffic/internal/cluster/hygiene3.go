// Retired-directive hygiene: the lock-guard analyzer is gone, so a
// leftover //cplint:guardedby annotation is an unknown directive, not
// a silently ignored contract.
package cluster

import "sync"

// Leftover still carries the retired annotation on its counter.
type Leftover struct {
	mu sync.Mutex
	//cplint:guardedby mu
	n int
}
