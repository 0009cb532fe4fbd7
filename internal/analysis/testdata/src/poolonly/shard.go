// Package poolonly seeds violations for the poolonly analyzer's golden
// test. No file of the engine package is exempt: a spawn site in a file
// named shard.go is flagged like any other.
package poolonly

import "sync"

type pool struct {
	wg sync.WaitGroup
}

func (p *pool) start(n int) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker() // want `go statement in the round engine`
	}
}

func (p *pool) worker() { p.wg.Done() }
