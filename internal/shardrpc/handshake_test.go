package shardrpc

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/safeio"
)

// FuzzHandshake drives both ends of the handshake with arbitrary bytes.
// Server side, over net.Pipe: hello is the payload of the client's first
// frame, and the server refuses it unless it is exactly a well-formed hello
// with the server's protocol version and digest, which gets an OK reply. Client side, over loopback TCP: reply is replayed verbatim as
// the server's byte stream after the client's hello, and dial returns a
// connection or an error, never both and never neither. Neither side may
// panic or hang.
func FuzzHandshake(f *testing.F) {
	const digest, shards = 0x5eed, 2
	srv := NewServer(rdf.NewStore(), digest, ServerOptions{})
	// Version 6 replies with the server's time where 5 sent a span tree;
	// a hello of any other version is refused, 5, 4 (a shard in the header
	// and the hello) and 7 included.
	good := hello{version: 6, digest: digest}.encode()
	okReply := framed(f, append([]byte{statusOK}, append(good, 0, 0, 0, 0)...))
	errReply := framed(f, append([]byte{statusErr}, append(good, 2, 0, 0, 0, 'n', 'o')...))
	for _, h := range [][]byte{
		good,
		hello{version: ProtoVersion, digest: digest + 1}.encode(),
		hello{version: 3, digest: digest}.encode(),
		hello{version: 4, digest: digest}.encode(),
		append(hello{version: 4, digest: digest}.encode(), shards, 0, 0, 0), // a version 4 hello, shard count and all
		hello{version: 5, digest: digest}.encode(),
		hello{version: 7, digest: digest}.encode(),
		append(append([]byte(nil), good...), 0),
		good[:len(good)-1],
		nil,
	} {
		f.Add(h, okReply)
	}
	f.Add(good, errReply)
	f.Add(good, okReply[:len(okReply)-1])
	f.Add(good, append(append([]byte(nil), okReply...), 0xff))
	f.Add(good, []byte(nil))
	f.Fuzz(func(t *testing.T, helloPayload, reply []byte) {
		accepted := serverHandshake(t, srv, helloPayload)
		if want := bytes.Equal(helloPayload, good); accepted != want {
			t.Fatalf("server accepted %x: %v, want %v", helloPayload, accepted, want)
		}

		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(dialTimeout))
			if _, err := safeio.ReadFrame(c); err == nil {
				c.Write(reply)
			}
		}()
		pool, err := NewPool(PoolOptions{Servers: []string{lis.Addr().String()}, Digest: digest})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		conn, err := pool.dial(context.Background(), lis.Addr().String())
		if (conn == nil) == (err == nil) {
			t.Fatalf("dial returned connection %v and error %v", conn, err)
		}
		if conn != nil {
			conn.Close()
		}
		if bytes.Equal(reply, okReply) && err != nil {
			t.Fatalf("dial refused a well-formed OK reply: %v", err)
		}
	})
}

// framed returns payload as one safeio frame.
func framed(tb testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	if err := safeio.WriteFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// serverHandshake sends payload as a client's hello frame to srv over a
// pipe and reports whether the server accepted it. An acceptance must come
// with an OK reply, a refusal with an error reply or none.
func serverHandshake(t *testing.T, srv *Server, payload []byte) bool {
	cli, conn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- srv.handshake(conn)
		conn.Close()
	}()
	cli.SetDeadline(time.Now().Add(dialTimeout))
	var reply []byte
	err := safeio.WriteFrame(cli, payload)
	if err == nil {
		reply, err = safeio.ReadFrame(cli)
	}
	cli.Close()
	accepted := <-done == nil
	okReply := err == nil && len(reply) > 0 && reply[0] == statusOK
	if accepted != okReply {
		t.Fatalf("server accepted %v but replied %x (read error %v)", accepted, reply, err)
	}
	return accepted
}
