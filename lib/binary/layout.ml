let page_bits = 12
let page_size = 1 lsl page_bits

let code_base = 0x0040_0000L
let data_base = 0x0060_0000L
let tls_base = 0x0070_0000L
let heap_base = 0x0080_0000L

let stack_top = 0x7F00_0000L
let stack_region = 256 * 1024
let max_threads = 64
let tls_block_region = 4096 (* one TLS block per thread *)

let stack_base_of_thread i =
  Int64.sub stack_top (Int64.of_int (i * stack_region))

let stack_limit_of_thread i =
  Int64.sub stack_top (Int64.of_int ((i + 1) * stack_region))

let tls_block_of_thread i =
  Int64.add tls_base (Int64.of_int (i * tls_block_region))

let page_of_addr a = Int64.to_int (Int64.div a (Int64.of_int page_size))
let addr_of_page p = Int64.mul (Int64.of_int p) (Int64.of_int page_size)
let page_offset a = Int64.to_int (Int64.rem a (Int64.of_int page_size))
