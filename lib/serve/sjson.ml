include Nf_util.Json
