package poolonly

func runRound(work func()) {
	go work() // want `go statement in the round engine`
	done := make(chan struct{})
	go func() { // want `go statement in the round engine`
		work()
		close(done)
	}()
	<-done
}
