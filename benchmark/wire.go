package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// reply is what a client learned from one answered request.
type reply struct {
	rows     int   // rows of a query answer; written tuples of an update
	deleted  int   // deleted tuples of an update
	stmts    int   // DML statements of an update
	serverNs int64 // the server's own elapsed_ns
	bytes    int   // response body size (HTTP)
	decodeNs int64 // client-side JSON decode time, when the body was decoded
}

// lineConn is one persistent line-protocol connection.
type lineConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLine(addr string) (*lineConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineConn{conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}, nil
}

func (c *lineConn) close() { c.conn.Close() }

// roundTrip sends one request line and parses the one-line answer:
// "OK <rows> <elapsed_ns>" for Q, "OK <stmts> <written> <deleted>
// <elapsed_ns>" for U. Anything else (ERR lines included: sheds count as
// failures here) is an error.
func (c *lineConn) roundTrip(req []byte) (reply, error) {
	if _, err := c.conn.Write(req); err != nil {
		return reply{}, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	// Parsed in place: the load generator should not allocate per request.
	bad := func() (reply, error) {
		return reply{}, fmt.Errorf("line protocol: %s", bytes.TrimSpace(line))
	}
	if !bytes.HasPrefix(line, []byte("OK ")) {
		return bad()
	}
	var nums [4]int64
	n, digit := 0, false
	for _, b := range line[3:] {
		switch {
		case b >= '0' && b <= '9':
			if n == len(nums) {
				return bad()
			}
			nums[n] = nums[n]*10 + int64(b-'0')
			digit = true
		case (b == ' ' || b == '\n' || b == '\r') && digit:
			n, digit = n+1, false
		default:
			return bad()
		}
	}
	switch n {
	case 2:
		return reply{rows: int(nums[0]), serverNs: nums[1]}, nil
	case 4:
		return reply{stmts: int(nums[0]), rows: int(nums[1]), deleted: int(nums[2]), serverNs: nums[3]}, nil
	}
	return bad()
}

// lineRows fetches a query's rows with the D verb, as strings.
func (c *lineConn) lineRows(tenant, query string) ([]string, error) {
	if _, err := fmt.Fprintf(c.conn, "D %s %s\n", tenant, query); err != nil {
		return nil, err
	}
	head, err := c.r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	var n int
	if _, err := fmt.Sscanf(head, "ROWS %d", &n); err != nil {
		return nil, fmt.Errorf("line protocol: %s", head)
	}
	rows := make([]string, 0, n)
	for {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		l = l[:len(l)-1]
		if l == "." {
			break
		}
		rows = append(rows, l)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("line protocol: ROWS %d but %d lines", n, len(rows))
	}
	return rows, nil
}

func lineQuery(tenant, query string) []byte {
	return []byte("Q " + tenant + " " + query + "\n")
}

// mutation is one wire mutation of a U batch.
type mutation struct {
	Op   string `json:"op"`
	Path string `json:"path"`
	XML  string `json:"xml,omitempty"`
}

func lineUpdate(tenant string, m mutation) []byte {
	js, _ := json.Marshal([]mutation{m}) // a struct of strings always marshals
	return []byte("U " + tenant + " " + string(js) + "\n")
}

// httpConn is one keep-alive HTTP client with its own connection.
type httpConn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPConn(addr string) *httpConn {
	return &httpConn{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
	}
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

func queryURL(tenant, query string) string {
	return "/query?tenant=" + url.QueryEscape(tenant) + "&q=" + url.QueryEscape(query)
}

// queryBody is the part of a /query answer the benchmark checks.
type queryBody struct {
	Rows      [][]any `json:"rows"`
	RowCount  int     `json:"row_count"`
	ElapsedNs int64   `json:"elapsed_ns"`
}

// get fetches one query answer. The body is always read whole; row_count and
// elapsed_ns are read from its tail, and the rows are decoded only when
// decode is set.
func (c *httpConn) get(path string, decode bool) (reply, *queryBody, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return reply{}, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, nil, err
	}
	body := c.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return reply{}, nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	rows, ok1 := tailNumber(body, `"row_count": `)
	ns, ok2 := tailNumber(body, `"elapsed_ns": `)
	if !ok1 || !ok2 {
		return reply{}, nil, fmt.Errorf("http: answer without row_count/elapsed_ns")
	}
	rep := reply{rows: int(rows), serverNs: ns, bytes: len(body)}
	if !decode {
		return rep, nil, nil
	}
	var qb queryBody
	t0 := time.Now()
	if err := json.Unmarshal(body, &qb); err != nil {
		return rep, nil, fmt.Errorf("http: decoding answer: %w", err)
	}
	rep.decodeNs = int64(time.Since(t0))
	return rep, &qb, nil
}

// tailNumber reads the integer that follows the last occurrence of key.
func tailNumber(body []byte, key string) (int64, bool) {
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	n, err := strconv.ParseInt(string(body[i:j]), 10, 64)
	return n, err == nil
}

// digits is the number of decimal digits of a non-negative n.
func digits(n int64) int { return len(strconv.FormatInt(n, 10)) }
