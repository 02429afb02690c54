package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rog/internal/transport"
)

// ServeConn answers serve-protocol requests from one connection until the
// stream ends, decoding each marker-framed request and writing the reply
// when its batch flushes. Replies from concurrent batches interleave in
// completion order; the request id pairs them. A clean peer close returns
// nil; the first read, decode or reply-write error otherwise.
//
// Requests decode into one connection-owned feature buffer (Submit keeps no
// reference to it) and replies are framed into one connection-owned Batch,
// so a steady stream of calls allocates nothing.
//
// The caller owns the connection and closes it after ServeConn returns.
func (s *Server) ServeConn(conn net.Conn) error {
	rc := transport.NewReceiver(conn)
	var (
		wmu  sync.Mutex      // serializes reply writes; guards werr and wb
		werr error           // first reply-write error; the read loop surfaces it
		wb   transport.Batch // reply framing scratch
		in   []float32       // request feature scratch
	)
	reply := func(rep Reply) {
		wmu.Lock()
		defer wmu.Unlock()
		if werr != nil {
			return
		}
		wb.Reset()
		wb.End(appendReply(wb.Begin(), ReplyFrame{
			ID:      uint64(rep.ID),
			Version: rep.Version,
			Seq:     uint64(rep.Seq),
			Output:  rep.Output,
		}))
		_, werr = wb.Send(conn, 0, 1, time.Time{})
	}
	for {
		wmu.Lock()
		failed := werr
		wmu.Unlock()
		if failed != nil {
			return failed
		}
		payload, err := rc.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		req, err := decodeRequestInto(payload, in)
		if err != nil {
			return err
		}
		in = req.Input
		err = s.Submit(Request{
			ID:         int64(req.ID),
			MinVersion: req.MinVersion,
			Input:      req.Input,
		}, reply)
		if err != nil {
			return err
		}
	}
}

// Serve accepts connections from l and runs ServeConn on each until Accept
// fails (closing the listener is the shutdown signal).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveAndClose(conn)
	}
}

// serveAndClose runs one connection to completion and closes it.
func (s *Server) serveAndClose(conn net.Conn) {
	_ = s.ServeConn(conn) // per-conn errors end that client only
	_ = conn.Close()
}

// Client is a synchronous serve-protocol client over one connection. Do
// calls are serialized; for concurrent load, open one Client per
// goroutine (connections are cheap — the server batches across them).
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	rc     *transport.Receiver
	nextID uint64          // guarded by mu
	wb     transport.Batch // guarded by mu; request framing scratch
	out    []float32       // guarded by mu; the last reply's output
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, rc: transport.NewReceiver(conn)}
}

// Do sends one request demanding version ≥ minVersion and blocks for its
// reply. Replies for other ids (stale answers outliving a lossy exchange)
// are skipped. Deadlines and retries are the caller's: set them on the
// underlying connection when the channel may drop frames.
//
// The reply's Output is the client's buffer, valid until the next Do.
func (c *Client) Do(input []float32, minVersion int64) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	c.wb.Reset()
	c.wb.End(appendRequest(c.wb.Begin(), RequestFrame{ID: id, MinVersion: minVersion, Input: input}))
	if _, err := c.wb.Send(c.conn, 0, 1, time.Time{}); err != nil {
		return Reply{}, fmt.Errorf("serve: client send: %w", err)
	}
	for {
		payload, err := c.rc.Recv()
		if err != nil {
			return Reply{}, fmt.Errorf("serve: client recv: %w", err)
		}
		rep, err := decodeReplyInto(payload, c.out)
		if err != nil {
			return Reply{}, err
		}
		c.out = rep.Output
		if rep.ID != id {
			continue
		}
		return Reply{
			ID:      int64(rep.ID),
			Version: rep.Version,
			Seq:     int64(rep.Seq),
			Output:  rep.Output,
		}, nil
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
