// Package lockorder is the golden corpus for the lockorder analyzer:
// acquisition-order cycles across functions, self-deadlocks, and the
// blocking-under-lock shapes, plus the non-blocking idioms that must
// stay clean.
package lockorder

import (
	"net/http"
	"sync"
	"time"
)

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// abOrder and baOrder together form a module-wide order cycle; the
// diagnostic lands on the lexicographically smaller edge's witness —
// the acquisition of B.mu while A.mu is held.
func abOrder(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

func baOrder(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// double takes the same class twice: an immediate self-deadlock, the
// mutexes are not reentrant.
func double(a *A) {
	a.mu.Lock()
	a.mu.Lock() // want "already holding"
	a.mu.Unlock()
	a.mu.Unlock()
}

// nested order on distinct classes with no reverse path anywhere is
// fine: C.mu before D.mu only.
type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

func cdOrder(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

func sendUnderLock(a *A, ch chan int) {
	a.mu.Lock()
	ch <- 1 // want "channel send while holding"
	a.mu.Unlock()
}

// deferredStillHeld: a deferred unlock keeps the lock held — the
// receive below it really does block under the lock.
func deferredStillHeld(a *A, ch chan int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return <-ch // want "channel receive while holding"
}

func httpUnderLock(a *A) {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _ = http.Get("http://localhost/x") // want "call into net/http"
}

func sleepUnderLock(a *A) {
	a.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding"
	a.mu.Unlock()
}

func waitUnderLock(a *A, wg *sync.WaitGroup) {
	a.mu.Lock()
	wg.Wait() // want "sync Wait while holding"
	a.mu.Unlock()
}

// nonBlockingOffer is the serve engine's recruitment shape: a select
// with a default arm can never block, even under the lock.
func nonBlockingOffer(a *A, ch chan int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// blockingSelect has no default arm: the wait point blocks with the
// lock held.
func blockingSelect(a *A, ch chan int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	select { // want "select with no default arm while holding"
	case ch <- 1:
	}
}

// released: blocking after the unlock is ordinary synchronization.
func released(a *A, ch chan int) int {
	a.mu.Lock()
	a.mu.Unlock()
	return <-ch
}

// branchRelease: the receive is reached both with the lock held (the
// skip branch) and released; the must-join only flags operations that
// hold the lock on every path, so this conservative shape stays clean.
func branchRelease(a *A, ch chan int, early bool) int {
	a.mu.Lock()
	if early {
		a.mu.Unlock()
	}
	v := <-ch
	if !early {
		a.mu.Unlock()
	}
	return v
}

// rangeChanUnderLock drains a channel while holding the lock: each
// iteration is a blocking receive.
func rangeChanUnderLock(a *A, ch chan int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for range ch { // want "range over channel while holding"
	}
}

// suppressed documents a deliberate wait under the lock.
func suppressed(a *A, ch chan int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	<-ch //urllangid:ignore lockorder startup-only handshake, runs before any other goroutine can contend
}

var pkgMu sync.Mutex

// pkgLevel: package-level mutexes resolve to a class too.
func pkgLevel(ch chan int) {
	pkgMu.Lock()
	defer pkgMu.Unlock()
	<-ch // want "channel receive while holding"
}

type embedded struct{ sync.Mutex }

// promoted: an embedded mutex reached through the promoted method
// still gets a class (the embedding type).
func promoted(e *embedded, ch chan int) {
	e.Lock()
	defer e.Unlock()
	<-ch // want "channel receive while holding"
}

// The shapes below pin the syntax-tree walk to the control-flow
// semantics of a must-analysis: branches meet by intersection, break
// and continue carry their state to the loop or switch they leave, a
// loop body is walked until its entry state settles, and return or
// panic ends a path.

// heldAcrossFor: the lock is held on every path through the loop.
func heldAcrossFor(a *A, ch chan int, n int) {
	a.mu.Lock()
	for i := 0; i < n; i++ {
		ch <- i // want "channel send while holding"
	}
	a.mu.Unlock()
}

func heldAcrossRange(a *A, ch chan int, xs []int) {
	a.mu.Lock()
	for _, x := range xs {
		ch <- x // want "channel send while holding"
	}
	a.mu.Unlock()
}

// relockInLoop: each iteration drops the lock around its send and takes
// it again, so the send is unlocked and the relock is not reentrant.
func relockInLoop(a *A, ch chan int, n int) {
	a.mu.Lock()
	for i := 0; i < n; i++ {
		a.mu.Unlock()
		ch <- i
		a.mu.Lock()
	}
	a.mu.Unlock()
}

// breakAfterUnlock: the only way out of the infinite loop is the break
// after the unlock.
func breakAfterUnlock(a *A, ch chan int, ready func() bool) int {
	a.mu.Lock()
	for {
		if ready() {
			a.mu.Unlock()
			break
		}
	}
	return <-ch
}

// labeledBreak leaves both loops from the inner one with the lock
// released. The inner loop's own exit keeps the lock, so the sleep in
// the outer body is under it, and the receive after both loops is not
// held on every path.
func labeledBreak(a *A, ch chan int, rows [][]int) int {
	a.mu.Lock()
outer:
	for _, row := range rows {
		for _, x := range row {
			if x < 0 {
				a.mu.Unlock()
				break outer
			}
		}
		time.Sleep(time.Millisecond) // want "time.Sleep while holding"
	}
	return <-ch
}

// continueAfterUnlock: an iteration that unlocks continues, so the next
// iteration's receive is not under the lock on every path.
func continueAfterUnlock(a *A, ch chan int, xs []int) {
	a.mu.Lock()
	for _, x := range xs {
		if v := <-ch; v == x {
			a.mu.Unlock()
			continue
		}
	}
}

// switchReturn: the case that unlocks returns, so every path that falls
// out of the switch still holds the lock.
func switchReturn(a *A, ch chan int, mode int) int {
	a.mu.Lock()
	switch mode {
	case 0:
		a.mu.Unlock()
		return 0
	case 1:
		mode++
	}
	return <-ch // want "channel receive while holding"
}

// switchNoDefault: every case locks, but a mode no case matches skips
// the switch without the lock.
func switchNoDefault(a *A, ch chan int, mode int) int {
	switch mode {
	case 0:
		a.mu.Lock()
	case 1:
		a.mu.Lock()
	}
	return <-ch
}

// selectBothUnlock: the select waits under the lock, and each arm
// releases it before the send after the select.
func selectBothUnlock(a *A, in, out chan int) {
	a.mu.Lock()
	var v int
	select { // want "select with no default arm while holding"
	case v = <-in:
		a.mu.Unlock()
	case <-out:
		a.mu.Unlock()
	}
	out <- v
}

// ifElseOneArm: only the if arm unlocks, so the else arm blocks under
// the lock and the receive after the branch is not held on every path.
func ifElseOneArm(a *A, ch chan int, fast bool) int {
	a.mu.Lock()
	if fast {
		a.mu.Unlock()
	} else {
		<-ch // want "channel receive while holding"
	}
	return <-ch
}

func ifElseBothArms(a *A, ch chan int, fast bool) int {
	a.mu.Lock()
	if fast {
		a.mu.Unlock()
	} else {
		a.mu.Unlock()
	}
	return <-ch
}

// fallthroughUnlocked: the second case is entered from the switch with
// the lock held and from the first case without it.
func fallthroughUnlocked(a *A, ch chan int, mode int) int {
	a.mu.Lock()
	switch mode {
	case 0:
		a.mu.Unlock()
		fallthrough
	case 1:
		return <-ch
	}
	a.mu.Unlock()
	return 0
}

// gotoUnlocked: the forward goto leaves the lock released, so the
// receive at its label is not held on every path.
func gotoUnlocked(a *A, ch chan int, skip bool) int {
	a.mu.Lock()
	if skip {
		a.mu.Unlock()
		goto wait
	}
	time.Sleep(time.Millisecond) // want "time.Sleep while holding"
wait:
	return <-ch
}

// gotoLoop: the backward goto re-enters its label without the lock, so
// the receive there is not held on every path.
func gotoLoop(a *A, ch chan int, n int) {
	a.mu.Lock()
	i := 0
again:
	if i < n {
		<-ch
		a.mu.Unlock()
		i++
		goto again
	}
}

// The shapes below pin where go and defer statements run: the function
// value and the arguments in place, the call itself on another
// goroutine or when the function returns.

type T struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

func use(int) {}

// goWait: the Wait runs on a new goroutine, not under the lock.
func goWait(t *T) {
	t.mu.Lock()
	go t.wg.Wait()
	t.mu.Unlock()
}

// deferWaitAfterUnlock: the deferred Wait runs after the explicit
// Unlock.
func deferWaitAfterUnlock(t *T) {
	t.mu.Lock()
	defer t.wg.Wait()
	t.mu.Unlock()
}

// goReceiveArg: a go statement's arguments are evaluated in place, so
// the receive blocks under the lock.
func goReceiveArg(t *T) {
	t.mu.Lock()
	go use(<-t.ch) // want "channel receive while holding"
	t.mu.Unlock()
}

// deferWaitBeforeDeferredUnlock: deferred calls run last-in first-out,
// so the Wait runs before the deferred Unlock, with the lock held.
func deferWaitBeforeDeferredUnlock(t *T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.wg.Wait() // want "sync Wait while holding .*lockorder.T.mu: deferred after"
}
