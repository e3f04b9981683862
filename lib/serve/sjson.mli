(** Alias of {!Nf_util.Json}, kept because perfbench names [Nf_serve.Sjson]. *)
include module type of struct include Nf_util.Json end
